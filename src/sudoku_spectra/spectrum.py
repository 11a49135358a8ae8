"""Realize any achievable intersection value with an explicit pair of
squares, plus the machinery behind it.

``realize_sudoku_pair(h, w, t)`` builds a pair of box type (h, w) with
h <= w and transposes it when h > w:

* (2,2), (2,3), (3,3) come straight from the seed fixtures, which witness
  those complete spectra;
* at box width 4, the three targets n^2-6, n^2-9, n^2-11 have no product
  decomposition and also come from seeds;
* everything else splits t into h*h order-w latin targets
  (``decompose_target``) realized as latin pairs (below).  Both squares
  are gathered at once by construct's block-product kernel over the cyclic
  outer square, rows already in Sudoku form, and checked in one stacked
  pass.  Intersections add across family slots, so the pair meets the
  target exactly; the result is re-verified anyway.

``realize_latin_pair(w, s)`` never searches, and its pair depends on
(w, s) alone:

* at a composite order w = a*b the pair is a box type (a, b) Sudoku pair,
  whose spectrum is the order-w latin spectrum, built as above (seeds
  and the block product);
* at the prime orders 2, 3, 5 and 7, and for the nine values the holed
  square misses at order 11, it comes from checked-in seed fixtures of
  box type (1, w);
* at every other prime order p >= 11 it is a holed square (Dénes and
  Keedwell 1974; Evans 1960): the cyclic square of odd order k = p - m
  on the symbols m..p-1, prolonged along its broken diagonals 0..m-1,
  leaves an order-m hole, m even, that takes an order-m latin pair (X, Y)
  meeting in x cells.  A symbol permutation of the second square that
  fixes a of the m hole symbols and b of the k outer symbols gives
  |A ∩ B| = k*a + p*b + x.

Both realizers check their input once: a value outside the spectrum
raises ``SpectrumError``, an order above ``construct.MAX_ORDER`` raises
``ValueError``.  They then recurse through the private builders
``_sudoku_pair`` and ``_latin_pair``, which take the target as achievable
and memoize latin pairs in a ``PairCache``: the caller's, or a fresh one
that lives as long as the call.  A file-backed cache is a journal that
gains one JSON line per new pair.
"""
from __future__ import annotations

import json
import math
import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .construct import (
    SeedRequired,
    _block_products,
    decompose_target,
    forbidden_values,
    latin_spectrum,
    sudoku_spectrum,
)
from .core import (
    BoxType,
    LatinSquare,
    MalformedInputError,
    SudokuSquare,
    _latin_type,
    cyclic_square,
    intersection_size,
)
from .formats import ParseError, grid_json, grids_from_json, holds_json_boolean, read_json_object
from .seeds import DATABASE, SeedDatabase


class SpectrumError(ValueError):
    """Requested intersection value is not achievable."""


class CertificateError(ValueError):
    """A certificate's pair does not meet in its claimed number of cells."""


def _describe_values(allowed: frozenset[int]) -> str:
    vals = sorted(allowed)
    runs = []
    start = prev = vals[0]
    for v in vals[1:] + [None]:
        if v is not None and v == prev + 1:
            prev = v
            continue
        runs.append(str(start) if start == prev else f"{start}..{prev}")
        if v is not None:
            start = prev = v
    return ", ".join(runs)


def _spectrum_message(value: int, n: int, allowed: frozenset[int], what: str) -> str:
    msg = f"{value} is not an achievable intersection for {what}"
    if n >= 3 and value in forbidden_values(n):
        excluded = sorted(forbidden_values(n))
        msg += (
            f"; no two distinct order-{n} latin squares can agree on "
            f"n^2-1, n^2-2, n^2-3, or n^2-5 cells (= {excluded[3]}, {excluded[2]}, "
            f"{excluded[1]}, {excluded[0]})"
        )
    else:
        msg += f"; achievable values are {_describe_values(allowed)}"
    return msg


_JSON_SPACE = re.compile(r"[ \t\n\r]*")


class PairCache:
    """Memo cache for realized latin pairs, keyed by (order, target).

    With a path, the cache is an append-only journal: each put adds one
    canonical JSON line ``{"w:s":[rows_a,rows_b]}``, so it costs one entry,
    not the whole file.  Loading reads one or more whitespace-separated
    JSON objects (a single object, as older versions wrote, is one) and
    merges their entries in file order; entries failing validation are
    dropped silently (the cache is advisory, the constructions rebuild
    what it cannot supply).  Any other text, an empty file or a torn last
    line included, raises ParseError (kind "cache") and is left as is.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.RLock()
        self._mem: dict[tuple[int, int], tuple[LatinSquare, LatinSquare]] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as f:
            data = f.read()
        decoder, objects = json.JSONDecoder(), []
        try:
            text = data.decode()
            pos = _JSON_SPACE.match(text).end()
            while not objects or pos < len(text):
                raw, pos = decoder.raw_decode(text, pos)
                objects.append(raw)
                pos = _JSON_SPACE.match(text, pos).end()
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ParseError("cache", f"cache file {self.path} is not JSON: {exc}") from None
        if not all(isinstance(raw, dict) for raw in objects):
            raise ParseError(
                "cache", f'cache file {self.path} must hold JSON objects of "w:s" pair entries'
            )
        for key, value in (entry for raw in objects for entry in raw.items()):
            try:
                w_str, s_str = key.split(":")
                w, s = int(w_str), int(s_str)
                rows_a, rows_b = value
                if holds_json_boolean(rows_a) or holds_json_boolean(rows_b):
                    continue  # numpy reads true and false as 1 and 0
                a, b = LatinSquare(rows_a), LatinSquare(rows_b)
                if a.order == w and intersection_size(a, b) == s:
                    self._mem[(w, s)] = (a, b)
            except (ValueError, TypeError):
                continue

    def get(self, w: int, s: int) -> tuple[LatinSquare, LatinSquare] | None:
        with self._lock:
            return self._mem.get((w, s))

    def put(self, w: int, s: int, pair: tuple[LatinSquare, LatinSquare]) -> None:
        a, b = pair
        with self._lock:
            if self.path is not None:
                with open(self.path, "a") as f:
                    f.write(f'{{"{w}:{s}":[{grid_json(a.cells)},{grid_json(b.cells)}]}}\n')
            self._mem[(w, s)] = pair

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)


def _box_type_for(w: int) -> tuple[int, int]:
    """(a, w // a) with a the largest divisor of w at most sqrt(w); a == 1
    exactly when w is 1 or prime."""
    a = max(d for d in range(1, math.isqrt(w) + 1) if w % d == 0)
    return a, w // a


def _holed_split(p: int, s: int) -> tuple[int, int, int, int] | None:
    """(m, a, b, x) with s = (p - m)*a + p*b + x: m even, 4 <= m <= p/2, a
    in 0..m-2 or m, b in 0..k-2 or k for k = p - m, and x in the order-m
    latin spectrum.  The smallest hole wins; None if there is no split."""
    for m in range(4, p // 2 + 1, 2):
        k = p - m
        inner = latin_spectrum(m)
        for a in (*range(m - 1), m):
            rest = s - k * a
            # b such that 0 <= x = rest - p*b <= m*m
            for b in range(max(0, -((m * m - rest) // p)), min(rest // p, k) + 1):
                if b != k - 1 and rest - p * b in inner:
                    return m, a, b, rest - p * b
    return None


def _holed_pair(p: int, m: int, a: int, b: int, x: int, cache: PairCache,
                seed_db: SeedDatabase) -> tuple[LatinSquare, LatinSquare]:
    """The order-p pair of a ``_holed_split``, meeting in (p - m)*a + p*b + x
    cells."""
    k = p - m
    i = np.arange(k)
    r = np.arange(m)[:, None]
    cols = (i + r) % k  # broken diagonal r: one cell in each row i
    rows = np.broadcast_to(i, cols.shape)
    moved = m + (2 * i + r) % k  # the cyclic symbol on it, a transversal as k is odd
    holed = np.zeros((p, p), dtype=np.int64)
    holed[:k, :k] = m + (i[:, None] + i) % k
    holed[rows, cols] = r
    holed[rows, k + r] = moved
    holed[k + r, cols] = moved
    tau = np.arange(p)  # fixes the first a hole and first b outer symbols
    tau[a:m] = np.roll(tau[a:m], 1)
    tau[m + b:] = np.roll(tau[m + b:], 1)
    inner_a, inner_b = _latin_pair(m, x, cache, seed_db)
    cells = np.stack([holed, tau[holed]])
    cells[:, k:, k:] = inner_a.cells, inner_b.cells
    return tuple(SudokuSquare._all_checked(cells, _latin_type(p)))


def realize_latin_pair(
    w: int,
    s: int,
    rng=None,
    *,
    cache: PairCache | None = None,
    seed_db: SeedDatabase = DATABASE,
) -> tuple[LatinSquare, LatinSquare]:
    """Two order-w latin squares meeting in exactly s cells, built without
    search (see the module docstring).  ``rng`` is never drawn from: the
    pair is a function of (w, s)."""
    spectrum = latin_spectrum(w)
    if s not in spectrum:
        raise SpectrumError(_spectrum_message(s, w, spectrum, f"order-{w} latin squares"))
    return _latin_pair(w, s, PairCache() if cache is None else cache, seed_db)


def _latin_pair(w: int, s: int, cache: PairCache,
                seed_db: SeedDatabase) -> tuple[LatinSquare, LatinSquare]:
    """``realize_latin_pair`` for an achievable s, memoized in ``cache``."""
    hit = cache.get(w, s)
    if hit is not None:
        return hit
    box_h, box_w = _box_type_for(w)
    if s == w * w:
        a = cyclic_square(w)
        pair = (a, a)
    elif box_h > 1:  # box_w < w, so this recursion ends
        a, b, _ = _sudoku_pair(box_h, box_w, s, cache, seed_db)
        latin = _latin_type(w)  # the stacked Sudoku check covered rows and columns
        pair = (SudokuSquare._from_checked(a.cells, latin), SudokuSquare._from_checked(b.cells, latin))
    elif (1, w) in seed_db.types() and s in seed_db.get(1, w).labels():
        pair = seed_db.get(1, w).pair_for(s)
    else:
        split = _holed_split(w, s)
        if split is None:  # every prime above 7 has a split or an order-11 fixture
            raise AssertionError(
                f"no seed or holed-square split gives a pair of order-{w} latin squares "
                f"meeting in {s} cells; {s} is achievable at order {w}"
            )
        pair = _holed_pair(w, *split, cache, seed_db)  # m < w, so this recursion ends
    cache.put(w, s, pair)
    return pair


_CERTIFICATE_FIELDS = {"h": int, "w": int, "target": int, "method": str, "a": list, "b": list}


@dataclass(frozen=True)
class RealizationCertificate:
    """A realized pair plus how it was obtained.  ``verify`` recomputes
    the claim from scratch."""

    a: SudokuSquare
    b: SudokuSquare
    target: int
    method: str  # "seed" | "product"

    def verify(self) -> int:
        if self.a.box_type != self.b.box_type:
            raise CertificateError("pair has mismatched box types")
        actual = intersection_size(self.a, self.b)
        if actual != self.target:
            raise CertificateError(f"pair meets in {actual} cells, claimed {self.target}")
        return actual

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace.  The grids come first
        in key order, so the scalar fields close the object."""
        box = self.a.box_type
        return (f'{{"a":{grid_json(self.a.cells)},"b":{grid_json(self.b.cells)},"h":{box.h},'
                f'"method":{json.dumps(self.method)},"target":{self.target},"w":{box.w}}}')

    @classmethod
    def from_json(cls, text: str) -> "RealizationCertificate":
        """Read a certificate and check it from scratch.  Canonical text, as
        ``to_json`` writes it, is read without building Python lists; any
        other JSON takes the general path, which gives every rejection."""
        fields = _canonical_certificate(text) if isinstance(text, str) else None
        if fields is None:
            obj = read_json_object(text, "certificate", _CERTIFICATE_FIELDS)
            fields = obj["h"], obj["w"], obj["target"], obj["method"], [obj["a"], obj["b"]]
        h, w, target, method, grids = fields
        if h < 2 or w < 2:
            raise ParseError("certificate", 'fields "h" and "w" must be at least 2')
        if method not in ("seed", "product"):
            raise ParseError("certificate", 'field "method" must be seed or product')
        try:
            a, b = SudokuSquare._all_checked(grids, BoxType(h, w))
        except MalformedInputError as exc:  # not an order h*w grid of symbols
            raise ParseError("certificate", f"certificate grid: {exc}") from None
        cert = cls(a, b, target, method)
        cert.verify()
        return cert


# to_json's text, and realize --out's with its newline.  The grids are
# matched loosely here and checked exactly by re-encoding; longer numbers
# than these take the general path, which gives its own rejection.
_CANONICAL_CERTIFICATE = re.compile(
    r'\{"a":([^"]*),"b":([^"]*),"h":([1-9][0-9]{0,5}),"method":"(seed|product)",'
    r'"target":(0|[1-9][0-9]{0,17}),"w":([1-9][0-9]{0,5})\}\n?')


def _canonical_certificate(text: str):
    """The fields of a certificate in exactly the form ``to_json`` writes
    (or ``realize --out``, which adds a newline), the grids as one coerced
    (2, n, n) array from one parse of both, or None for any other text."""
    match = _CANONICAL_CERTIFICATE.fullmatch(text)
    if match is None:
        return None
    text_a, text_b, h, method, target, w = match.groups()
    grids = grids_from_json([text_a, text_b], int(h) * int(w))
    return None if grids is None else (int(h), int(w), int(target), method, grids)


def realize_sudoku_pair(
    h: int,
    w: int,
    t: int,
    rng=None,
    *,
    cache: PairCache | None = None,
    seed_db: SeedDatabase = DATABASE,
) -> RealizationCertificate:
    """A certificate pair of box type (h, w) Sudoku squares meeting in
    exactly t cells, for any achievable t."""
    if h < 2 or w < 2:
        raise ValueError(f"box type needs h, w >= 2, got {(h, w)}")
    spectrum = sudoku_spectrum(h, w)
    if t not in spectrum:
        raise SpectrumError(_spectrum_message(t, h * w, spectrum, f"box type ({h}, {w})"))
    a, b, method = _sudoku_pair(min(h, w), max(h, w), t,
                                PairCache() if cache is None else cache, seed_db)
    if h > w:
        a, b = a.transposed(), b.transposed()
    cert = RealizationCertificate(a, b, t, method)
    cert.verify()
    return cert


def _sudoku_pair(h: int, w: int, t: int, cache: PairCache, seed_db: SeedDatabase):
    """(a, b, method): box type (h, w) Sudoku squares meeting in an
    achievable t cells, for 2 <= h <= w."""
    if w < 4 or isinstance(dec := decompose_target(t, h, w), SeedRequired):
        a, b = seed_db.get(h, w).pair_for(t)  # (2, 2), (2, 3), (3, 3) are seeds only
        return a, b, "seed"
    # at most four distinct parts: w^2, the residue, 0, or w^2-6 and the rest
    parts = list(dict.fromkeys(dec.parts))
    pairs = [_latin_pair(w, part, cache, seed_db) for part in parts]
    # row-major: part i*h + k fills slot (i, k) of both squares, rows reordered
    grids = _block_products(cyclic_square(h), np.array([[x.cells, y.cells] for x, y in pairs]),
                            [parts.index(part) for part in dec.parts], reorder=True)
    a, b = SudokuSquare._all_checked(grids, BoxType(h, w))
    return a, b, "product"

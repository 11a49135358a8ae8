"""Realize any achievable intersection value with an explicit pair of
squares, plus the machinery behind it.

``realize_sudoku_pair(h, w, t)`` dispatches by box type:

* (2,2), (2,3), (3,3) and their transposes come straight from the seed
  fixtures, which witness those complete spectra;
* at box width 4, the three targets n^2-6, n^2-9, n^2-11 have no product
  decomposition and also come from seeds;
* everything else splits t into h*h order-w latin targets
  (``decompose_target``) realized by ``realize_latin_pair``, assembled
  with the block product over a common outer square, and reordered into
  Sudoku form.  Intersections add across family slots, so the assembled
  pair meets the target exactly; the result is re-verified anyway.

``realize_latin_pair(w, s)`` at a composite order w = a*b is a box type
(a, b) Sudoku pair, whose spectrum is the order-w latin spectrum, so it
comes from ``realize_sudoku_pair`` (seeds and the block product) with no
search.  Only at prime orders does it search depth-first for a second
square at prescribed agreement with a base square (the cyclic square,
then random squares), steering candidate order toward or away from
agreement depending on the remaining quota.  Found pairs go into a memo
cache, optionally persisted as a JSON file.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .construct import (
    Decomposition,
    SeedRequired,
    decompose_target,
    forbidden_values,
    latin_spectrum,
    sudoku_spectrum,
    SquareFamily,
    sudoku_reorder,
    triangle_product,
)
from .core import (
    BoxType,
    LatinSquare,
    SudokuSquare,
    cyclic_square,
    intersection_size,
)
from .formats import ParseError, canonical_json
from .markov import complete_grid, ensure_rng, random_latin_square
from .seeds import DATABASE, SeedDatabase


class SpectrumError(ValueError):
    """Requested intersection value is not achievable."""


class RealizationError(RuntimeError):
    """The search gave up; with default budgets this indicates a bug for
    any value inside the spectrum."""


class CertificateError(AssertionError):
    pass


DEFAULT_MAX_ORDER = 144

SEED_ONLY_TYPES = {(2, 2), (2, 3), (3, 3)}


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


class PairCache:
    """Memo cache for realized latin pairs, keyed by (order, target).

    With a path, the cache round-trips through a canonical JSON file;
    entries failing validation on load are dropped silently (the cache is
    advisory, searches recompute what it cannot supply).  A file that is
    not a JSON object raises ParseError (kind "cache") and is left as is.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.RLock()
        self._mem: dict[tuple[int, int], tuple[LatinSquare, LatinSquare]] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as f:
            text = f.read()
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError("cache", f"cache file {self.path} is not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ParseError(
                "cache", f'cache file {self.path} must hold a JSON object of "w:s" pair entries'
            )
        for key, value in raw.items():
            try:
                w_str, s_str = key.split(":")
                w, s = int(w_str), int(s_str)
                rows_a, rows_b = value
                a, b = LatinSquare(rows_a), LatinSquare(rows_b)
                if a.order == w and intersection_size(a, b) == s:
                    self._mem[(w, s)] = (a, b)
            except (ValueError, TypeError):
                continue

    def _save(self) -> None:
        payload = {
            f"{w}:{s}": [a.cells.tolist(), b.cells.tolist()]
            for (w, s), (a, b) in sorted(self._mem.items())
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(canonical_json(payload))
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, w: int, s: int) -> tuple[LatinSquare, LatinSquare] | None:
        with self._lock:
            return self._mem.get((w, s))

    def put(self, w: int, s: int, pair: tuple[LatinSquare, LatinSquare]) -> None:
        with self._lock:
            self._mem[(w, s)] = pair
            if self.path is not None:
                self._save()

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)


DEFAULT_PAIR_CACHE = PairCache()


def _search_second(a_flat: list[int], w: int, s: int, budget: int) -> list[int] | None:
    """Depth-first search, in row-major cell order, for a latin square
    agreeing with ``a`` in exactly s cells.  Returns its flat cell list,
    or None if the subtree under this base square is exhausted or the
    node budget runs out."""
    total = w * w
    full = (1 << w) - 1
    agreed = [0] * (total + 1)  # agreements with a among the first pos cells

    def steer(grid, pos, rows, cols, groups):  # row-major: the depth is the cell
        if pos:
            agreed[pos] = agreed[pos - 1] + (grid[pos - 1] == a_flat[pos - 1])
        done = agreed[pos]
        left = total - pos  # this cell included; done + left >= s always holds
        free = full & ~(rows[pos // w] | cols[pos % w])
        agree = a_flat[pos]
        agree_bit = free & (1 << agree)
        order = []
        if done + left > s:  # a disagreement here still leaves room to reach s
            rest = free ^ agree_bit
            while rest:
                bit = rest & -rest
                rest ^= bit
                order.append(bit.bit_length() - 1)
        if agree_bit and done < s:
            # behind quota: try the agreeing symbol first, else last
            if 2 * (s - done) >= left:
                order.insert(0, agree)
            else:
                order.append(agree)
        return pos, order

    return complete_grid(w, None, steer, budget)


_NODE_BUDGET = 200_000
_SEARCH_ROUNDS = 5


def _box_type_for(w: int) -> tuple[int, int]:
    """(a, w // a) with a the largest divisor of w at most sqrt(w); a == 1
    exactly when w is 1 or prime."""
    a = max(d for d in range(1, math.isqrt(w) + 1) if w % d == 0)
    return a, w // a


def _search_pair(w: int, s: int, rng) -> tuple[LatinSquare, LatinSquare]:
    """Search from the cyclic square, then from random squares, with a
    node budget per base that grows fourfold each round."""
    for round_no in range(_SEARCH_ROUNDS):
        budget = _NODE_BUDGET * 4**round_no
        randoms = (random_latin_square(w, rng) for _ in range(4 * (round_no + 1)))
        for a in itertools.chain([cyclic_square(w)], randoms):
            found = _search_second(a.cells.ravel().tolist(), w, s, budget)
            if found is not None:
                b = LatinSquare(np.array(found, dtype=np.int64).reshape(w, w))
                assert intersection_size(a, b) == s
                return a, b
    raise RealizationError(
        f"no pair of order-{w} latin squares meeting in {s} cells found in "
        f"{_SEARCH_ROUNDS} rounds of search from the cyclic and random base squares, "
        f"the last at {budget} nodes per base; {s} is achievable at order {w}"
    )


def realize_latin_pair(
    w: int,
    s: int,
    rng=None,
    *,
    cache: PairCache | None = None,
) -> tuple[LatinSquare, LatinSquare]:
    """Two order-w latin squares meeting in exactly s cells."""
    if w < 1:
        raise ValueError(f"order must be positive, got {w}")
    spectrum = latin_spectrum(w)
    if s not in spectrum:
        raise SpectrumError(_spectrum_message(s, w, spectrum, f"order-{w} latin squares"))
    if cache is None:
        cache = DEFAULT_PAIR_CACHE
    hit = cache.get(w, s)
    if hit is not None:
        return hit
    box_h, box_w = _box_type_for(w)
    if s == w * w:
        a = cyclic_square(w)
        pair = (a, a)
    elif box_h > 1:  # box_w < w, so this recursion ends
        cert = realize_sudoku_pair(box_h, box_w, s, ensure_rng(rng), cache=cache, max_order=w)
        pair = (cert.a.square, cert.b.square)
    else:
        pair = _search_pair(w, s, ensure_rng(rng))
    cache.put(w, s, pair)
    return pair


_CERTIFICATE_FIELDS = {
    "h": (int, "an integer"),
    "w": (int, "an integer"),
    "target": (int, "an integer"),
    "method": (str, "a string"),
    "a": (list, "an array of rows"),
    "b": (list, "an array of rows"),
}


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
        return canonical_json(
            {
                "h": self.a.box_type.h,
                "w": self.a.box_type.w,
                "target": self.target,
                "method": self.method,
                "a": self.a.cells.tolist(),
                "b": self.b.cells.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RealizationCertificate":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError("certificate", f"certificate is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError("certificate", "certificate must be a JSON object")
        for key, (kind, name) in _CERTIFICATE_FIELDS.items():
            value = obj.get(key)
            # bool is an int subclass, but JSON true/false is not a number
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ParseError("certificate", f"certificate field {key!r} must be {name}")
        box = BoxType(obj["h"], obj["w"])
        cert = cls(
            SudokuSquare(obj["a"], box),
            SudokuSquare(obj["b"], box),
            obj["target"],
            obj["method"],
        )
        cert.verify()
        return cert


def realize_sudoku_pair(
    h: int,
    w: int,
    t: int,
    rng=None,
    *,
    cache: PairCache | None = None,
    seed_db: SeedDatabase = DATABASE,
    max_order: int = DEFAULT_MAX_ORDER,
) -> RealizationCertificate:
    """A certificate pair of box type (h, w) Sudoku squares meeting in
    exactly t cells, for any achievable t."""
    if h < 2 or w < 2:
        raise ValueError(f"box type needs h, w >= 2, got {(h, w)}")
    n = h * w
    if n > max_order:
        raise ValueError(f"order {n} exceeds the configured limit {max_order}")
    spectrum = sudoku_spectrum(h, w)
    if t not in spectrum:
        raise SpectrumError(_spectrum_message(t, n, spectrum, f"box type ({h}, {w})"))

    if (h, w) in SEED_ONLY_TYPES or (w, h) in SEED_ONLY_TYPES:
        if (h, w) in SEED_ONLY_TYPES:
            a, b = seed_db.get(h, w).pair_for(t)
        else:
            a, b = seed_db.get(w, h).pair_for(t)
            a, b = a.transposed(), b.transposed()
        cert = RealizationCertificate(a, b, t, "seed")
        cert.verify()
        return cert

    hh, ww = (h, w) if w >= h else (w, h)
    flip = (hh, ww) != (h, w)

    dec = decompose_target(t, hh, ww)
    if isinstance(dec, SeedRequired):
        a, b = seed_db.get(hh, 4).pair_for(t)
        method = "seed"
    else:
        assert isinstance(dec, Decomposition)
        outer = cyclic_square(hh)
        members_a = []
        members_b = []
        for i in range(hh):
            row_a = []
            row_b = []
            for k in range(hh):
                part = dec.parts[i * hh + k]
                pa, pb = realize_latin_pair(ww, part, rng, cache=cache)
                row_a.append(pa)
                row_b.append(pb)
            members_a.append(row_a)
            members_b.append(row_b)
        fam_a = SquareFamily(members_a)
        fam_b = SquareFamily(members_b)
        a = sudoku_reorder(triangle_product(outer, fam_a), hh, ww)
        b = sudoku_reorder(triangle_product(outer, fam_b), hh, ww)
        method = "product"
    if flip:
        a, b = a.transposed(), b.transposed()
    cert = RealizationCertificate(a, b, t, method)
    cert.verify()
    return cert

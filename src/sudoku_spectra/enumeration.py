"""Exhaustive enumeration of small latin and Sudoku squares, and
brute-force computation of their intersection spectra.  The package's
one fixed-order enumerator and one agreement-count kernel live here; the
Pentadoku census uses both, with cages in place of boxes.

The enumerator fills one cell per level for all partial squares at once,
so its rows come out sorted and orbit images are found by binary search.
On a 2-core Xeon VM it lists the 39,168 canonical (2, 3) squares in about
0.1 s (0.35 s for the recursive backtracker it replaced).

Squares are enumerated up to symbol relabelling (first row 0..n-1); every
square is some relabelling pi of a canonical square C, and
|A ∩ (pi of C)| = sum over symbols t of m[t, pi(t)] where m counts cells
of A holding pi(t) at positions where C holds t.  The kernel streams the
(A, C) pairs in chunks of about 2^20 values: one product of a chunk's
(pairs, n*n) counts with an (n*n, n!) 0/1 selector gives all of its
values, so memory stays bounded at every size.  Intersection sizes are
invariant when both squares get the same row permutation, column
permutation, or transpose, and validity-preserving choices of those map
the enumerated family onto itself, so the left square A only needs to
range over orbit representatives of that action.  The test suite checks
the reduced sweep against an all-pairs comparison of every square.

A latin square is box type (1, n): its boxes are its rows, so one
enumerator, one position group and one sweep serve both kinds of square.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import BoxType, SudokuSquare, intersection_size

MAX_LATIN_ORDER = 5
MAX_SUDOKU_ORDER = 6
_CHUNK_VALUES = 1 << 20  # agreement values per chunk of the sweep: bounds its memory


def _fill_squares(n: int, group_of: list[int], first_row_fixed: bool) -> np.ndarray:
    """Every order-n latin square, as the sorted rows of an (N, n*n) uint8
    array, in which each group of cells (``group_of[pos]`` in 0..n-1) also
    holds every symbol.  With ``first_row_fixed`` the first row reads 0..n-1.

    Breadth first, one cell per level in row-major order: every partial
    square takes each symbol its row, column and group leave free, parents
    in order and symbols ascending.  Levels keep only symbols and parent
    indices; the squares are read back from them once, at the end.
    """
    full = (1 << n) - 1
    bits = np.array([1 << s for s in range(n)], dtype=np.uint8)
    start = n if first_row_fixed else 0
    row = np.zeros(1, dtype=np.uint8)  # the current row's mask
    col = np.zeros((1, n), dtype=np.uint8)
    grp = np.zeros((1, n), dtype=np.uint8)
    for c in range(start):
        col[0, c] = bits[c]
        grp[0, group_of[c]] |= bits[c]
    levels = []
    for pos in range(start, n * n):
        c, g = pos % n, group_of[pos]
        if c == 0:
            row[:] = 0
        avail = ~(row | col[:, c] | grp[:, g]) & full
        parent, symbol = np.nonzero(avail[:, None] & bits)
        if not len(parent):
            return np.zeros((0, n * n), dtype=np.uint8)
        bit = bits[symbol]
        row = row[parent] | bit
        col = col[parent]
        col[:, c] |= bit
        grp = grp[parent]
        grp[:, g] |= bit
        levels.append((pos, symbol.astype(np.uint8), parent))
    out = np.empty((len(row), n * n), dtype=np.uint8)
    out[:, :start] = np.arange(start, dtype=np.uint8)
    leaf = np.arange(len(row))
    for pos, symbol, parent in reversed(levels):
        out[:, pos] = symbol[leaf]
        leaf = parent[leaf]
    return out


def enumerate_squares(n: int, box_type: BoxType, first_row_fixed: bool = True) -> np.ndarray:
    """All order-n Sudoku squares of the box type as an (N, n*n) uint8
    array; box type (1, n) gives every latin square.

    With ``first_row_fixed`` only squares whose first row reads 0..n-1 are
    produced, one per symbol-relabelling class.
    """
    return _fill_squares(n, box_type.cell_boxes(), first_row_fixed)


def _line_permutations(total: int, block: int) -> list[tuple[int, ...]]:
    """Permutations of 0..total-1 respecting blocks of the given size:
    blocks may be permuted and lines within each block may be permuted."""
    count = total // block
    inner = list(itertools.permutations(range(block)))
    return [tuple(outer[b] * block + x for b in range(count) for x in choice[b])
            for outer in itertools.permutations(range(count))
            for choice in itertools.product(inner, repeat=count)]


def position_group(n: int, box_type: BoxType) -> np.ndarray:
    """Cell-position permutations preserving the enumerated family, as a
    (G, n*n) gather table: transformed_flat = flat[P[g]]."""
    rho = np.array(_line_permutations(n, box_type.h), dtype=np.int32)
    gamma = np.array(_line_permutations(n, box_type.w), dtype=np.int32)
    # cells[i, j] = rho[i][:, None] * n + gamma[j][None, :], row-perm major
    cells = rho[:, None, :, None] * n + gamma[None, :, None, :]
    # the transpose has box type (w, h): the same family when the boxes
    # are square or are lines, as in a latin square; it follows each cell
    if box_type.h == box_type.w or 1 in (box_type.h, box_type.w):
        cells = np.stack([cells, cells.swapaxes(2, 3)], axis=2)
    return cells.reshape(-1, n * n)


def orbit_representatives(canon: np.ndarray, n: int, group: np.ndarray) -> list[int]:
    """Indices of one canonical square per orbit of the position group
    (composed with symbol renormalization back to canonical form)."""
    # the rows are sorted, so as fixed-width byte strings they can be searched
    keys = canon.view(f"S{n * n}").ravel()
    covered = np.zeros(len(canon), dtype=bool)
    reps = []
    for i in range(len(canon)):
        if covered[i]:
            continue
        reps.append(i)
        transformed = canon[i][group]
        # renormalize so the first row reads 0..n-1 again
        sigma = np.argsort(transformed[:, :n], axis=1).astype(np.uint8)
        images = np.take_along_axis(sigma, transformed, axis=1).view(keys.dtype).ravel()
        found = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        if not (keys[found] == images).all():
            raise AssertionError(f"an image of square {i} is not in the enumerated family")
        covered[found] = True
    assert covered.all()
    return reps


@cache
def _symbol_selector(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! symbol permutations as an (n!, n) array, and the (n*n, n!)
    0/1 matrix whose column p has a 1 at row t*n + perms[p][t]."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    selector = np.zeros((n * n, len(perms)), dtype=np.float32)
    selector[np.arange(n) * n + perms, np.arange(len(perms))[:, None]] = 1.0
    return perms, selector


def _sweep(lefts: np.ndarray, canon: np.ndarray, n: int) -> dict[int, tuple[int, int, int]]:
    """Intersection values of each left square (uint8 rows) against every
    relabelling of every canonical square, in chunks of ``_CHUNK_VALUES``.
    Returns value -> (left index, canonical index, perm index of
    ``_symbol_selector(n)``) of each value's first witness in that order."""
    perms, selector = _symbol_selector(n)
    rows = max(1, _CHUNK_VALUES // len(perms))
    pairs = len(lefts) * len(canon)
    wanted = list(range(n * n + 1))
    found: dict[int, tuple[int, int, int]] = {}
    for start in range(0, pairs, rows):
        pair = np.arange(start, min(start + rows, pairs))
        left, right = np.divmod(pair, len(canon))
        # the chunk's i-th pair counts symbol t of its canonical square
        # against symbol s of its left square at key (i*n + t)*n + s
        key = canon[right].astype(np.int64) * n + lefts[left] + ((pair - start) * n * n)[:, None]
        m = np.bincount(key.ravel(), minlength=key.size).reshape(key.shape).astype(np.float32)
        # float32 sums of at most n*n ones are exact
        vals = (m @ selector).astype(np.uint8).ravel()
        # a scan per value still wanted beats a histogram once most are found
        for v in wanted:
            hit = vals == v
            first = int(np.argmax(hit))
            if hit[first]:
                i, p = divmod(first, len(perms))
                found[v] = (int(left[i]), int(right[i]), p)
        wanted = [v for v in wanted if v not in found]
    return found


@dataclass(frozen=True)
class SpectrumReport:
    """Result of a brute-force spectrum computation."""

    order: int
    box_type: BoxType
    canonical_count: int
    total_count: int
    values: frozenset[int]
    witnesses: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]
    orbit_count: int


def brute_force_spectrum(h: int, w: int) -> SpectrumReport:
    """Exact I(h, w) by enumeration, with re-verified witnesses, for latin
    orders (h or w = 1) up to 5 and box orders up to 6."""
    box = BoxType(h, w)
    n = box.n
    if 1 in (h, w) and n > MAX_LATIN_ORDER:
        raise ValueError(f"latin enumeration supports 1 <= n <= {MAX_LATIN_ORDER}, got {n}")
    if n > MAX_SUDOKU_ORDER:
        raise ValueError(f"Sudoku enumeration supports h*w <= {MAX_SUDOKU_ORDER}, got {(h, w)}")
    canon = enumerate_squares(n, box, first_row_fixed=True)
    if len(canon) == 0:
        raise RuntimeError(f"no squares of order {n} found, enumeration is broken")
    perms, _ = _symbol_selector(n)
    reps = orbit_representatives(canon, n, position_group(n, box))

    def to_rows(flat: np.ndarray) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(v) for v in row) for row in flat.reshape(n, n))

    witnesses = {v: (to_rows(canon[reps[r]]), to_rows(perms[p][canon[k]]))
                 for v, (r, k, p) in _sweep(canon[reps], canon, n).items()}
    for v, (a_rows, b_rows) in witnesses.items():
        actual = intersection_size(SudokuSquare(a_rows, box), SudokuSquare(b_rows, box))
        if actual != v:
            raise AssertionError(f"witness pair for value {v} actually meets in {actual} cells")
    return SpectrumReport(n, box, len(canon), len(canon) * len(perms), frozenset(witnesses),
                          witnesses, len(reps))


def brute_force_latin_spectrum(n: int) -> SpectrumReport:
    """Exact I(n) by enumeration, for n <= 5: the spectrum of box type (1, n)."""
    return brute_force_spectrum(1, n)

"""Exhaustive enumeration of small latin and Sudoku squares, and
brute-force computation of their intersection spectra.  The package's
one fixed-order enumerator and one agreement-count kernel live here; the
Pentadoku census uses both, with cages in place of boxes.

The enumerator fills one cell per level for all partial squares of every
family of group layouts at once (the census solves its 107 tilings in one
call), so its rows come out sorted and the rank of an orbit image's key
is its square's index.  On a 2-core Intel Xeon VM it lists the 39,168
canonical (2, 3) squares in about 15 ms and their 49 orbits in 28 ms.

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
range over orbit representatives of that action, found from a few
generators.  The tests check the sweep against an all-pairs comparison.
Every witness pair is line-checked and recounted before it is reported.

A latin square is box type (1, n): its boxes are its rows, so one
enumerator, one position group and one sweep serve both kinds of square.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .core import BoxType, _checked

MAX_SUDOKU_ORDER = 6  # the largest order h*w that brute_force_spectrum enumerates
_CHUNK_VALUES = 1 << 20  # agreement values per chunk of the sweep: bounds its memory


@cache
def _free_symbols(n: int) -> np.ndarray:
    """Word m holds eight bools, byte s set if symbol s is free of mask m."""
    free = np.zeros((1 << n, 8), dtype=bool)
    free[:, :n] = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 0
    return free.view(np.uint64).ravel()


def _fill_squares(n: int, groups, first_row_fixed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every order-n latin square in which each group of cells also holds
    every symbol, for each family (a flat row) of a (k, n*n) table of group
    ids 0..n-1: the rows of an (N, n*n) uint8 array, by family and sorted in
    it, and their families.  With ``first_row_fixed`` row 0 reads 0..n-1.

    Breadth first, one cell per level in row-major order: every partial
    square takes each symbol its row, column and group leave free, parents
    in order and symbols ascending.  Levels keep only symbols and parent
    indices; the squares and their families (roots) are read back at the end.
    """
    if not len(groups):
        return np.zeros((0, n * n), dtype=np.uint8), np.zeros(0, dtype=np.intp)
    free = _free_symbols(n)
    start = n if first_row_fixed else 0
    # a cell's group column when every family shares it, else -1 (kept per family)
    shared = [1 + n + col[0] if col.count(col[0]) == len(col) else -1 for col in zip(*groups)]
    family = columns = None
    if -1 in shared[start:]:
        family, columns = np.arange(len(groups)), 1 + n + np.asarray(groups, dtype=np.intp)
    # each partial square's used-symbol masks (its current row, then its n
    # columns and n groups) padded to whole 8-byte words, which gather fastest
    width = (2 * n + 8) // 8 * 8
    state = np.zeros((len(groups), width), dtype=np.uint8)
    for f, group_of in enumerate(groups):
        for c in range(start):
            state[f, 1 + c] = 1 << c
            state[f, 1 + n + group_of[c]] |= 1 << c
    levels = []
    for pos in range(start, n * n):
        c, g = 1 + pos % n, shared[pos]
        if c == 1:
            state[:, 0] = 0
        # a shared group is one column; else each square's own, by flat index
        group = state[:, g] if g >= 0 else state.reshape(-1).take(
            columns[family, pos] + np.arange(0, state.size, width))
        # byte 8*i + s is set when symbol s is free in partial square i
        hit = free.take(state[:, 0] | state[:, c] | group).view(bool).nonzero()[0]
        parent, symbol = hit >> 3, (hit & 7).astype(np.uint8)
        bit = np.uint8(1) << symbol
        state = state.take(parent, axis=0)
        state[:, 0] |= bit
        state[:, c] |= bit
        if family is not None:
            family = family.take(parent)
        if g >= 0:
            state[:, g] |= bit
        else:
            state.reshape(-1)[columns[family, pos] + np.arange(0, state.size, width)] |= bit
        levels.append((pos, symbol, parent))
    out = np.empty((len(state), n * n), dtype=np.uint8)
    out[:, :start] = np.arange(start, dtype=np.uint8)
    leaf = np.arange(len(state))
    for pos, symbol, parent in reversed(levels):
        out[:, pos] = symbol.take(leaf)
        leaf = parent.take(leaf)
    return out, leaf


def enumerate_squares(n: int, box_type: BoxType, first_row_fixed: bool = True) -> np.ndarray:
    """All order-n Sudoku squares of the box type as an (N, n*n) uint8
    array; box type (1, n) gives every latin square.

    With ``first_row_fixed`` only squares whose first row reads 0..n-1 are
    produced, one per symbol-relabelling class.
    """
    if n != box_type.n:
        raise ValueError(f"order {n} is not h*w for box type {box_type.h}x{box_type.w}")
    return _fill_squares(n, [box_type.cell_boxes()], first_row_fixed)[0]


@cache
def position_group(n: int, box_type: BoxType) -> np.ndarray:
    """Generators (k <= 6 to order 6) of the position permutations preserving the
    family, as a read-only (k, n*n) gather table: transformed_flat = flat[P[g]]."""
    if n != box_type.n:
        raise ValueError(f"order {n} is not h*w for box type {box_type.h}x{box_type.w}")
    grid, line = np.arange(n * n).reshape(n, n), np.arange(n)
    # the transpose has box type (w, h): the same family when the boxes are
    # square or are lines, as in a latin square; it turns row moves into column
    # moves.  Per axis: swap lines 0 and 1 (in a block, or two one-line
    # blocks), cycle the first block's lines, swap and cycle the blocks
    symmetric = box_type.h == box_type.w or 1 in (box_type.h, box_type.w)
    moves = [grid.T] if symmetric else []
    for axis, b in [(0, box_type.h)] + ([] if symmetric else [(1, box_type.w)]):
        for p in (np.r_[line[1::-1], line[2:]], np.r_[np.roll(line[:b], 1), line[b:]],
                  np.r_[line[b:2 * b], line[:b], line[2 * b:]], np.roll(line, b)):
            moves.append(grid.take(p, axis=axis))
    table = np.unique(np.array(moves, dtype=np.int32).reshape(-1, n * n), axis=0)
    table = table[(table != grid.ravel()).any(axis=1)]
    table.flags.writeable = False
    return table


def orbit_representatives(canon: np.ndarray, n: int, group: np.ndarray) -> list[int]:
    """Indices of one canonical square per orbit of the group that the rows
    of ``group`` generate (composed with symbol renormalization back to
    canonical form): each orbit's least index, in ascending order."""
    if n > MAX_SUDOKU_ORDER:
        raise ValueError(f"orbit keys support orders up to {MAX_SUDOKU_ORDER}, got {n}")
    if len(canon) == 1:
        return [0]
    # rows 1..n-2 by columns 0..n-2 fix a latin square with a fixed first row and
    # sort as it does; as base-n digits they are exact in float64 (6**20 < 2**53)
    digits = [r * n + c for r in range(1, n - 1) for c in range(n - 1)]
    others = [*range(n), *range(2 * n - 1, n * n - n, n), *range(n * n - n, n * n)]
    weights = float(n) ** np.arange(len(digits) - 1, -1, -1)
    # one contiguous row of N symbols per cell: each step below runs on whole rows
    cells = np.ascontiguousarray(canon.T)
    images, equal = np.empty((2, *cells.shape), dtype=np.uint8)
    keys, rest, flags, maps = weights @ cells[digits], cells[others], equal.view(bool), []
    for g, key_cells, other_cells in zip(group, group[:, digits], group[:, others]):
        # renormalize, then move: a cell agreeing with cell g[j] (row 0 of the image) gets j
        np.equal(cells, cells[g[1]], out=images.view(bool))
        for j in range(2, n):
            np.equal(cells, cells[g[j]], out=flags)
            images += np.multiply(equal, np.uint8(j), out=equal)
        key, moved = weights @ images.take(key_cells, axis=0), images.take(other_cells, axis=0)
        # keys are sorted: square order[r] maps to square r if their keys and other
        # cells agree (a row 0 of 0..n-1 keeps the image's digits below n)
        order = np.argsort(key)
        if key[order].tobytes() != keys.tobytes() or moved.take(order, 1).tobytes() != rest.tobytes():
            order = np.searchsorted(keys, key)  # look each image up to name the least missing
            missing = np.flatnonzero((keys.take(order, mode="clip") != key) | (
                moved != rest.take(order, axis=1, mode="clip")).any(axis=0))
            if len(missing):
                raise AssertionError(f"an image of square {missing[0]} is not in the enumerated family")
        maps.append(order)
    # each map (or its inverse) permutes the family, so an orbit is a connected
    # component of the maps: spread the least index along them, with pointer jumping
    label, least = None, np.arange(len(canon))
    while label is None or (label != least).any():
        label = least
        least = reduce(np.minimum, (label[found] for found in maps), label)
        least = least[least]
    return np.flatnonzero(label == np.arange(len(canon))).tolist()


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
        # a scan per value still wanted beats a histogram once most are found;
        # wanted ascends, so no value past the chunk's largest can be in it
        top = int(vals.max())
        for v in wanted:
            if v > top:
                break
            hit = vals == v
            first = int(hit.argmax())
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
    """Exact I(h, w) by enumeration at every box type of order h*w <=
    MAX_SUDOKU_ORDER = 6, latin (h or w = 1) included.  Witnesses are re-checked
    in one stacked pass: each pair line-checked at (h, w), raising the error a
    square's check would, and its agreements recounted against its value."""
    box = BoxType(h, w)
    n = box.n
    if n > MAX_SUDOKU_ORDER:
        raise ValueError(f"enumeration supports orders h*w <= {MAX_SUDOKU_ORDER}, got {(h, w)}")
    canon = enumerate_squares(n, box, first_row_fixed=True)
    if len(canon) == 0:
        raise RuntimeError(f"no squares of order {n} found, enumeration is broken")
    perms, _ = _symbol_selector(n)
    reps = orbit_representatives(canon, n, position_group(n, box))
    found = _sweep(canon[reps], canon, n)
    r, k, p = np.array(list(found.values())).T
    pairs = np.stack([canon[np.take(reps, r)], perms[p[:, None], canon[k]]], axis=1, dtype=np.int64)
    pairs = _checked(pairs.reshape(-1, 2, n, n), box)
    for v, actual in zip(found, (pairs[:, 0] == pairs[:, 1]).sum(axis=(1, 2)).tolist()):
        if actual != v:
            raise AssertionError(f"witness pair for value {v} actually meets in {actual} cells")
    witnesses = {v: (tuple(map(tuple, a)), tuple(map(tuple, b)))
                 for v, (a, b) in zip(found, pairs.tolist())}
    return SpectrumReport(n, box, len(canon), len(canon) * len(perms), frozenset(witnesses),
                          witnesses, len(reps))


def brute_force_latin_spectrum(n: int) -> SpectrumReport:
    """Exact I(n) by enumeration, for n <= MAX_SUDOKU_ORDER = 6: box type (1, n)."""
    return brute_force_spectrum(1, n)

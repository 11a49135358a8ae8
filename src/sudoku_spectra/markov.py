"""Randomized square generation: one backtracking sampler.

The sampler ``sample_sudoku`` runs ``_sample_grid``, a find-one
exact-cover fill on an explicit stack: it branches on the cell,
row-symbol or column-symbol item with the fewest options, found by byte
search in a table of counts (255 once placed, so orders stop at 254)
kept incrementally against peer tables cached per box layout.  It gives
up after ``effort * n * n`` nodes to restart with fresh draws (short
runs with restarts tame heavy tails: Gomes, Selman & Kautz, AAAI 1998).
A random latin square is a Sudoku square of box type (1, n).  Listing
every completion is a different job and stays in ``enumeration``.

``sample_sudoku`` and ``random_latin_square`` take ``rng``: an int
seed, a numpy Generator (used as is), or None.  Fixed generator
algorithm: numpy PCG64 via ``default_rng``, so results are reproducible
across runs for a given seed.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .core import BoxType, LatinSquare, SudokuSquare


class SampleError(RuntimeError):
    """Backtracking sampler exhausted its restart budget."""


@lru_cache(maxsize=16)
def _peer_table(n: int, group_of: tuple[int, ...]):
    """Each cell's peers (the other cells of its row, column and group),
    and the offsets of its row's and its column's items in the counts."""
    pos = np.arange(n * n)
    group = np.asarray(group_of)
    members = np.argsort(group, kind="stable").reshape(n, n)
    lines = np.concatenate([
        (pos // n * n)[:, None] + np.arange(n),
        np.arange(0, n * n, n) + (pos % n)[:, None],
        members[group],
    ], axis=1)
    lines.sort(axis=1)
    keep = np.ones(lines.shape, dtype=bool)
    keep[:, 1:] = lines[:, 1:] != lines[:, :-1]
    keep &= lines != pos[:, None]
    peers = tuple(tuple(row[k].tolist()) for row, k in zip(lines, keep))
    return peers, (n * n + pos // n * n).tolist(), (2 * n * n + pos % n * n).tolist()


def _sample_grid(n: int, group_of: Sequence[int], rng: np.random.Generator,
                 effort: int) -> list[int] | None:
    """One randomized backtracking attempt; None on budget exhaustion.

    Each cell must also differ from the others in its group
    (``group_of[pos]`` in 0..n-1, n cells each).  The search is exact
    cover (Knuth, TAOCP 4B, 7.2.2.1) over three kinds of item: each cell
    takes one symbol, and each (row, symbol) and (column, symbol) pair
    is placed once.  The group constraint lives only in the candidate
    masks.  Each cell's candidate mask and every item's count of open
    options are updated on each place and restored on each lift, from a
    per-level trail of the peers that lost the symbol.  Counts take a
    byte each; a place writes 255 into its three items after the peers'
    decrements (a lift restores them first), so open counts stay in 0..n
    and orders up to 254 are exact.

    Each level branches on the open item with the fewest options (the
    first such in cell, row, column order: ``counts.find(k)`` for k = 0,
    1, ... up to the first hit) and tries them in
    ``rng.permutation`` order, so every square of the type has positive
    probability; an item with no option is a dead end.  The fill is
    depth-first, one cell per level, on an explicit stack, so no order
    is limited by the interpreter's recursion depth.  Each option tried
    counts one node; None when the tree is exhausted or a node beyond
    ``effort * n * n`` would be tried.
    """
    total = n * n
    budget = effort * total
    # counts[pos] for cells, counts[row_at[pos] + s] for (row, symbol) and
    # counts[col_at[pos] + s] for (column, symbol)
    peers, row_at, col_at = _peer_table(n, tuple(group_of))
    counts = bytearray([n]) * (3 * total)
    covered = 255  # the count of an item already placed: never least
    full = (1 << n) - 1
    cand = [full] * total
    grid = [-1] * total
    untried = [None] * total  # per level: an iterator over its options
    trail = [None] * total  # per level: what its placement changed
    depth = nodes = 0
    while depth < total:
        least = 0
        while (item := counts.find(least)) < 0:
            least += 1
        if least:
            if item < total:
                options = [(item, s) for s in range(n) if cand[item] >> s & 1]
            elif item < 2 * total:
                r, s = divmod(item - total, n)
                options = [(pos, s) for pos in range(r * n, r * n + n) if cand[pos] >> s & 1]
            else:
                c, s = divmod(item - 2 * total, n)
                options = [(pos, s) for pos in range(c, total, n) if cand[pos] >> s & 1]
            if least > 1:
                options = [options[i] for i in rng.permutation(least)]
        else:
            options = []  # a dead end
        todo = untried[depth] = iter(options)
        option = next(todo, None)
        while option is None:  # exhausted: back up one level and lift its symbol
            if depth == 0:
                return None
            depth -= 1
            pos, sym, mask, saved, hits = trail[depth]
            counts[pos], counts[row_at[pos] + sym], counts[col_at[pos] + sym] = saved
            bit = 1 << sym
            for q in hits:
                cand[q] |= bit
                counts[q] += 1
                counts[row_at[q] + sym] += 1
                counts[col_at[q] + sym] += 1
            rest = mask ^ bit
            while rest:
                low = rest & -rest
                t = low.bit_length() - 1
                counts[row_at[pos] + t] += 1
                counts[col_at[pos] + t] += 1
                rest ^= low
            cand[pos] = mask
            grid[pos] = -1
            option = next(untried[depth], None)
        nodes += 1
        if nodes > budget:
            return None
        pos, sym = option
        bit = 1 << sym
        rs = row_at[pos]
        cs = col_at[pos]
        mask = cand[pos]
        rest = mask ^ bit  # the cell's other symbols lose this option
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            counts[rs + t] -= 1
            counts[cs + t] -= 1
            rest ^= low
        hits = []
        for q in peers[pos]:
            if cand[q] & bit:
                cand[q] ^= bit
                counts[q] -= 1
                counts[row_at[q] + sym] -= 1
                counts[col_at[q] + sym] -= 1
                hits.append(q)
        saved = counts[pos], counts[rs + sym], counts[cs + sym]
        counts[pos] = counts[rs + sym] = counts[cs + sym] = covered
        cand[pos] = 0
        grid[pos] = sym
        trail[depth] = pos, sym, mask, saved, hits
        depth += 1
    return grid


def sample_sudoku(h: int, w: int, rng=None, *, effort: int = 2, restarts: int = 50) -> SudokuSquare:
    """A random Sudoku square of box type (h, w), deterministic in rng."""
    box = BoxType(h, w)
    n = box.n
    if n > 254:  # the kernel's byte counts: see _sample_grid
        raise ValueError(f"sampler order {n} exceeds 254")
    if effort < 0 or restarts < 1:
        raise ValueError(f"sampler needs effort >= 0 and restarts >= 1, got {effort} and {restarts}")
    box_of = tuple(box.cell_boxes())
    rng = np.random.default_rng(rng)
    for _ in range(restarts):
        grid = _sample_grid(n, box_of, rng, effort)
        if grid is not None:
            return SudokuSquare(np.array(grid, dtype=np.int64).reshape(n, n), box)
    raise SampleError(f"failed to sample a ({h}, {w}) Sudoku square in {restarts} restarts")


def random_latin_square(n: int, rng=None, *, effort: int = 2, restarts: int = 50) -> LatinSquare:
    """A random order-n latin square: box type (1, n), whose boxes are the
    rows, so no constraint is added."""
    return sample_sudoku(1, n, rng, effort=effort, restarts=restarts).square

"""Randomized square generation: backtracking samplers, the
Jacobson-Matthews chain on latin squares, and helpers for steering a
square toward or away from a reference.

The backtracking sampler ``sample_sudoku`` runs ``_sample_grid``, a
find-one exact-cover fill on an explicit stack: it branches on the cell,
row-symbol or column-symbol item with the fewest options, found by byte
search in a table of counts (255 once placed, so orders stop at 254)
kept incrementally against peer tables cached per box layout.  It gives
up after ``effort * n * n`` nodes to restart with fresh draws (short
runs with restarts tame heavy tails: Gomes, Selman & Kautz, AAAI 1998).
A random latin square is a Sudoku square of box type (1, n).  Listing
every completion is a different job and stays in ``enumeration``.

The chain walks the 0/1 incidence cube f(r, c, s) of a latin square (all
line sums 1), allowing one improper cell with a -1 entry.  From a proper
state, pick a uniform empty triple and trade along the implied 2x2x2
corner pattern; from an improper state, do the same from its negative
triple with uniform choices among the two positive candidates on each
line.  Sustained steps mix toward the uniform distribution on latin
squares of that order.

All functions take ``rng``: an int seed, a numpy Generator, or None.
Fixed generator algorithm: numpy PCG64 via ``default_rng``, so results
are reproducible across runs for a given seed.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BoxType,
    LatinSquare,
    SudokuSquare,
    validate_sudoku,
)


def ensure_rng(rng=None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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
    rng = ensure_rng(rng)
    for _ in range(restarts):
        grid = _sample_grid(n, box_of, rng, effort)
        if grid is not None:
            return SudokuSquare(np.array(grid, dtype=np.int64).reshape(n, n), box)
    raise SampleError(f"failed to sample a ({h}, {w}) Sudoku square in {restarts} restarts")


def random_latin_square(n: int, rng=None, *, effort: int = 2, restarts: int = 50) -> LatinSquare:
    """A random order-n latin square: box type (1, n), whose boxes are the
    rows, so no constraint is added."""
    return sample_sudoku(1, n, rng, effort=effort, restarts=restarts).square


@dataclass(frozen=True)
class ChainState:
    """Incidence cube of a (possibly improper) latin square."""

    f: np.ndarray  # (n, n, n) int8
    negative: tuple[int, int, int] | None = None

    @property
    def order(self) -> int:
        return self.f.shape[0]

    @property
    def proper(self) -> bool:
        return self.negative is None

    @classmethod
    def from_square(cls, square: LatinSquare) -> "ChainState":
        n = square.order
        f = np.zeros((n, n, n), dtype=np.int8)
        rr, cc = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        f[rr.ravel(), cc.ravel(), square.cells.ravel()] = 1
        f.flags.writeable = False
        return cls(f, None)

    def grid(self) -> LatinSquare:
        if not self.proper:
            raise ValueError("improper state has no square")
        return LatinSquare(np.argmax(self.f, axis=2))

    def check(self) -> None:
        """Assert the incidence invariants (all line sums 1, entries in
        {-1, 0, 1} with at most one -1)."""
        f = self.f
        assert f.sum(axis=0).min() == f.sum(axis=0).max() == 1
        assert f.sum(axis=1).min() == f.sum(axis=1).max() == 1
        assert f.sum(axis=2).min() == f.sum(axis=2).max() == 1
        neg = np.argwhere(f < 0)
        if self.proper:
            assert len(neg) == 0 and f.min() >= 0
        else:
            assert len(neg) == 1 and tuple(neg[0]) == self.negative and f.min() == -1


def jm_step(state: ChainState, rng=None) -> ChainState:
    """One move of the chain; proper and improper states alternate freely."""
    rng = ensure_rng(rng)
    n = state.order
    if n < 2:
        raise ValueError("the chain needs order >= 2")
    f = np.array(state.f, dtype=np.int8)
    if state.proper:
        r = int(rng.integers(n))
        c = int(rng.integers(n))
        s_cur = int(np.argmax(f[r, c]))
        s = int(rng.integers(n - 1))
        if s >= s_cur:
            s += 1
    else:
        r, c, s = state.negative

    def pick(cands: np.ndarray) -> int:
        return int(cands[rng.integers(len(cands))])

    r2 = pick(np.flatnonzero(f[:, c, s] == 1))
    c2 = pick(np.flatnonzero(f[r, :, s] == 1))
    s2 = pick(np.flatnonzero(f[r, c, :] == 1))
    f[r, c, s] += 1
    f[r, c2, s] -= 1
    f[r2, c, s] -= 1
    f[r, c, s2] -= 1
    f[r2, c2, s] += 1
    f[r2, c, s2] += 1
    f[r, c2, s2] += 1
    f[r2, c2, s2] -= 1
    negative = (r2, c2, s2) if f[r2, c2, s2] < 0 else None
    f.flags.writeable = False
    return ChainState(f, negative)


RESOLVE_STEPS = 10_000


def resolve_proper(state: ChainState, rng=None) -> ChainState:
    """Step until the state is proper again (almost surely fast)."""
    rng = ensure_rng(rng)
    for _ in range(RESOLVE_STEPS):
        if state.proper:
            return state
        state = jm_step(state, rng)
    raise RuntimeError(f"chain failed to return to a proper state in {RESOLVE_STEPS} steps")


def sample_latin_chain(n: int, rng=None, *, steps: int | None = None) -> LatinSquare:
    """Sample by mixing the chain from the cyclic square."""
    rng = ensure_rng(rng)
    if steps is None:
        steps = 10 * n * n * n
    from .core import cyclic_square

    state = ChainState.from_square(cyclic_square(n))
    for _ in range(steps):
        state = jm_step(state, rng)
    return resolve_proper(state, rng).grid()


DRIFT_ATTEMPTS = 40


def drift_near(square: SudokuSquare, rng=None, *, steps: int = 5) -> SudokuSquare:
    """A Sudoku square near the input: chain excursions resolved to
    proper squares, rejecting any that break a box.  Each step retries
    rejected proposals up to ``DRIFT_ATTEMPTS`` times, so ``steps`` counts
    accepted moves in practice; few steps keep the intersection with the
    input large."""
    rng = ensure_rng(rng)
    box = square.box_type
    state = ChainState.from_square(square.square)
    for _ in range(steps):
        for _ in range(DRIFT_ATTEMPTS):
            proposal = resolve_proper(jm_step(state, rng), rng)
            if validate_sudoku(proposal.grid(), box).ok:
                state = proposal
                break
    return SudokuSquare(state.grid(), box)


def _derangement(k: int, rng: np.random.Generator) -> np.ndarray:
    if k < 2:
        raise ValueError("derangements need at least 2 elements")
    while True:
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm


def row_derangement(square: SudokuSquare, rng=None) -> SudokuSquare:
    """Permute rows so none stays put, preserving the box structure:
    bands are deranged, and rows within each band are deranged too when
    the band holds more than one row."""
    rng = ensure_rng(rng)
    h, w = square.box_type.h, square.box_type.w
    bands = w  # n / h
    beta = _derangement(bands, rng)
    perm = np.empty(square.order, dtype=np.int64)
    for p in range(bands):
        inner = _derangement(h, rng) if h >= 2 else np.zeros(1, dtype=np.int64)
        for j in range(h):
            perm[p * h + j] = beta[p] * h + inner[j]
    return SudokuSquare(square.cells[perm], square.box_type)

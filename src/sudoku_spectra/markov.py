"""Randomized square generation: backtracking samplers, the
Jacobson-Matthews chain on latin squares, and helpers for steering a
square toward or away from a reference.

The backtracking sampler ``sample_sudoku`` runs ``_sample_grid``, a
find-one fill on an explicit stack under a node budget; a random latin
square is a Sudoku square of box type (1, n).  Enumerating every
completion is a different job and stays in ``enumeration``.

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

from dataclasses import dataclass

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


def _sample_grid(n: int, group_of: list[int], rng: np.random.Generator,
                 effort: int) -> list[int] | None:
    """One randomized backtracking attempt; None on budget exhaustion.

    Each cell must also differ from the others in its group
    (``group_of[pos]`` in 0..n-1).  The fill is depth-first, one cell per
    level, on an explicit stack, so no order is limited by the
    interpreter's recursion depth.  Each level takes the most constrained
    empty cell (ties broken at random) and tries its candidate symbols in
    random order, so every square of the type has positive probability.
    Each symbol tried counts one node; None when the tree is exhausted or
    a node beyond ``effort * n * n`` would be tried.
    """
    total = n * n
    budget = effort * total
    full = (1 << n) - 1
    grid = [-1] * total
    rows = [0] * n
    cols = [0] * n
    groups = [0] * n
    cell = [0] * total  # the cell filled at each level
    untried = [None] * total  # and an iterator over its symbols not yet tried
    depth = nodes = 0
    while depth < total:
        # a full rescan per level, ties broken at random
        best_count = n + 1
        ties = 0
        for pos in range(total):
            if grid[pos] >= 0:
                continue
            a = full & ~rows[pos // n] & ~cols[pos % n] & ~groups[group_of[pos]]
            cnt = a.bit_count()
            if cnt == 0:
                symbols = []  # a dead end
                break
            if cnt < best_count:
                best_count = cnt
                best_pos = pos
                best_avail = a
                ties = 1
            elif cnt == best_count:
                ties += 1
                if rng.integers(ties) == 0:
                    best_pos = pos
                    best_avail = a
        else:
            pos = best_pos
            symbols = [s for s in range(n) if best_avail >> s & 1]
            symbols = [symbols[i] for i in rng.permutation(len(symbols))]
        cell[depth] = pos
        todo = untried[depth] = iter(symbols)
        sym = next(todo, -1)
        while sym < 0:  # exhausted: back up one level and lift its symbol
            if depth == 0:
                return None
            depth -= 1
            pos = cell[depth]
            bit = 1 << grid[pos]
            rows[pos // n] ^= bit
            cols[pos % n] ^= bit
            groups[group_of[pos]] ^= bit
            grid[pos] = -1
            sym = next(untried[depth], -1)
        nodes += 1
        if nodes > budget:
            return None
        grid[pos] = sym
        bit = 1 << sym
        rows[pos // n] |= bit
        cols[pos % n] |= bit
        groups[group_of[pos]] |= bit
        depth += 1
    return grid


def sample_sudoku(h: int, w: int, rng=None, *, effort: int = 100, restarts: int = 20) -> SudokuSquare:
    """A random Sudoku square of box type (h, w), deterministic in rng."""
    box = BoxType(h, w)
    n = box.n
    box_of = box.cell_boxes()
    rng = ensure_rng(rng)
    for _ in range(restarts):
        grid = _sample_grid(n, box_of, rng, effort)
        if grid is not None:
            return SudokuSquare(np.array(grid, dtype=np.int64).reshape(n, n), box)
    raise SampleError(f"failed to sample a ({h}, {w}) Sudoku square in {restarts} restarts")


def random_latin_square(n: int, rng=None, *, effort: int = 100, restarts: int = 20) -> LatinSquare:
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

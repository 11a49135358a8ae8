"""Exhaustive enumeration of small latin and Sudoku squares, and
brute-force computation of their intersection spectra.  The package's
one fixed-order enumerator and one agreement-count kernel live here; the
Pentadoku census uses both, with cages in place of boxes.

Squares are enumerated up to symbol relabelling (first row 0..n-1); every
square is some relabelling pi of a canonical square C, and
|A ∩ (pi of C)| = sum over symbols t of m[t, pi(t)] where m counts cells
of A holding pi(t) at positions where C holds t.  The kernel takes all
of these as one product of the (N, n*n) counts with an (n*n, n!) 0/1
selector.  Intersection sizes are invariant when both squares get the
same row permutation, column permutation, or transpose, and
validity-preserving choices of those map the enumerated family onto
itself, so the left square A only needs to range over orbit
representatives of that action.  Each reduction step is cross-checked
against the all-pairs mode (``reduction="none"``) in the test suite.
"""
from __future__ import annotations

import itertools
from collections.abc import Container
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import BoxType, LatinSquare, SudokuSquare, intersection_size

MAX_LATIN_ORDER = 5
MAX_SUDOKU_ORDER = 6

REDUCTIONS = ("orbit", "symbol", "none")


def _fill_squares(n: int, group_of: list[int] | None, first_row_fixed: bool) -> list[list[int]]:
    """Every order-n latin square, as a row-major list, in which each group
    of cells (``group_of[pos]`` in 0..n-1, or None for no groups) also
    holds every symbol.  With ``first_row_fixed`` the first row reads
    0..n-1."""
    if group_of is None:
        # the rows again: a redundant constraint, so the loop has one shape
        group_of = [pos // n for pos in range(n * n)]
    full = (1 << n) - 1
    grid = [0] * (n * n)
    row_mask = [0] * n
    col_mask = [0] * n
    group_mask = [0] * n
    out: list[list[int]] = []

    start = 0
    if first_row_fixed:
        for c in range(n):
            grid[c] = c
            row_mask[0] |= 1 << c
            col_mask[c] |= 1 << c
            group_mask[group_of[c]] |= 1 << c
        start = n

    def fill(pos: int):
        if pos == n * n:
            out.append(grid.copy())
            return
        r, c = divmod(pos, n)
        g = group_of[pos]
        avail = full & ~row_mask[r] & ~col_mask[c] & ~group_mask[g]
        while avail:
            bit = avail & -avail
            avail ^= bit
            grid[pos] = bit.bit_length() - 1
            row_mask[r] |= bit
            col_mask[c] |= bit
            group_mask[g] |= bit
            fill(pos + 1)
            row_mask[r] ^= bit
            col_mask[c] ^= bit
            group_mask[g] ^= bit

    fill(start)
    return out


def enumerate_squares(n: int, box_type: BoxType | None, first_row_fixed: bool = True) -> np.ndarray:
    """All order-n (Sudoku) latin squares as an (N, n*n) uint8 array.

    With ``first_row_fixed`` only squares whose first row reads 0..n-1 are
    produced, one per symbol-relabelling class.
    """
    box_of = box_type.cell_boxes() if box_type is not None else None
    out = _fill_squares(n, box_of, first_row_fixed)
    return np.array(out, dtype=np.uint8).reshape(len(out), n * n)


def _line_permutations(total: int, block: int) -> list[tuple[int, ...]]:
    """Permutations of 0..total-1 respecting blocks of the given size:
    blocks may be permuted and lines within each block may be permuted."""
    count = total // block
    perms = []
    inner = list(itertools.permutations(range(block)))
    for outer in itertools.permutations(range(count)):
        for choice in itertools.product(inner, repeat=count):
            perm = []
            for b in range(count):
                base = outer[b] * block
                perm.extend(base + x for x in choice[b])
            perms.append(tuple(perm))
    return perms


def position_group(n: int, box_type: BoxType | None) -> np.ndarray:
    """Cell-position permutations preserving the enumerated family, as a
    (G, n*n) gather table: transformed_flat = flat[P[g]]."""
    if box_type is None:
        row_perms = list(itertools.permutations(range(n)))
        col_perms = row_perms
        transpose_ok = True
    else:
        row_perms = _line_permutations(n, box_type.h)
        col_perms = _line_permutations(n, box_type.w)
        transpose_ok = box_type.h == box_type.w
    cells = []
    for rho in row_perms:
        rho = np.asarray(rho, dtype=np.int32)
        for gamma in col_perms:
            gamma = np.asarray(gamma, dtype=np.int32)
            base = rho[:, None] * n + gamma[None, :]
            cells.append(base.ravel())
            if transpose_ok:
                cells.append(base.T.ravel())
    return np.array(cells, dtype=np.int32)


def orbit_representatives(canon: np.ndarray, n: int, group: np.ndarray) -> list[int]:
    """Indices of one canonical square per orbit of the position group
    (composed with symbol renormalization back to canonical form)."""
    index = {canon[i].tobytes(): i for i in range(len(canon))}
    covered = np.zeros(len(canon), dtype=bool)
    reps = []
    for i in range(len(canon)):
        if covered[i]:
            continue
        reps.append(i)
        transformed = canon[i][group]
        # renormalize so the first row reads 0..n-1 again
        sigma = np.argsort(transformed[:, :n], axis=1).astype(np.uint8)
        renormed = np.take_along_axis(sigma, transformed, axis=1)
        for row in renormed:
            covered[index[row.tobytes()]] = True
        assert covered[i]
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


def _sweep_one(rep: np.ndarray, canon: np.ndarray, n: int,
               known: Container[int]) -> dict[int, tuple[int, int]]:
    """Intersection values of one fixed square against every relabelling
    of every canonical square.  Returns value -> (canonical index, perm
    index of ``_symbol_selector(n)``) for the first witness of each value
    not in ``known``."""
    perms, selector = _symbol_selector(n)
    big = len(canon)
    key = (np.arange(big, dtype=np.int64)[:, None] * n + canon.astype(np.int64)) * n + rep.astype(np.int64)[None, :]
    m = np.bincount(key.ravel(), minlength=big * n * n).reshape(big, n * n).astype(np.float32)
    # float32 sums of at most n*n ones are exact
    vals = (m @ selector).astype(np.uint8).ravel()
    present = np.zeros(n * n + 1, dtype=bool)  # not np.bincount: it copies vals to int64
    present[vals] = True
    found: dict[int, tuple[int, int]] = {}
    for v in np.flatnonzero(present).tolist():
        if v not in known:
            found[v] = divmod(int(np.argmax(vals == v)), len(perms))
    return found


@dataclass(frozen=True)
class SpectrumReport:
    """Result of a brute-force spectrum computation."""

    order: int
    box_type: BoxType | None
    canonical_count: int
    total_count: int
    values: frozenset[int]
    witnesses: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]
    reduction: str
    orbit_count: int | None = None


def _compute_spectrum(n: int, box_type: BoxType | None, reduction: str, jobs: int) -> SpectrumReport:
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    canon = enumerate_squares(n, box_type, first_row_fixed=True)
    if len(canon) == 0:
        raise RuntimeError(f"no squares of order {n} found, enumeration is broken")
    perms, _ = _symbol_selector(n)
    total = len(canon) * len(perms)

    def to_rows(flat: np.ndarray) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(v) for v in row) for row in flat.reshape(n, n))

    if reduction == "none":
        # expand every square and compare all ordered pairs
        all_sq = perms.astype(np.uint8)[:, canon].reshape(total, n * n)
        values: set[int] = set()
        witnesses = {}
        for i in range(len(all_sq)):
            agree = (all_sq == all_sq[i]).sum(axis=1)
            for v in np.unique(agree).tolist():
                if v not in values:
                    j = int(np.argwhere(agree == v)[0][0])
                    values.add(v)
                    witnesses[v] = (to_rows(all_sq[i]), to_rows(all_sq[j]))
        return SpectrumReport(n, box_type, len(canon), total, frozenset(values), witnesses, reduction)

    if reduction == "symbol":
        reps = list(range(len(canon)))
        orbit_count = None
    else:
        group = position_group(n, box_type)
        reps = orbit_representatives(canon, n, group)
        orbit_count = len(reps)

    # Results are merged in representative order, so a worker that skips a
    # value already in ``witnesses`` skips it only for an earlier
    # representative's witness, and any ``jobs`` gives the same report.
    witnesses = {}

    def work(rep_idx: int) -> dict[int, tuple[int, int]]:
        return _sweep_one(canon[rep_idx], canon, n, witnesses)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        results = pool.map(work, reps) if jobs > 1 else map(work, reps)
        for rep_idx, found in zip(reps, results):
            for v, (k, p) in found.items():
                if v not in witnesses:
                    b_flat = perms[p][canon[k]].astype(np.uint8)
                    witnesses[v] = (to_rows(canon[rep_idx]), to_rows(b_flat))
    return SpectrumReport(n, box_type, len(canon), total, frozenset(witnesses), witnesses,
                          reduction, orbit_count)


def _verify_witnesses(report: SpectrumReport) -> None:
    for v, (a_rows, b_rows) in report.witnesses.items():
        if report.box_type is None:
            a, b = LatinSquare(a_rows), LatinSquare(b_rows)
        else:
            a = SudokuSquare(a_rows, report.box_type)
            b = SudokuSquare(b_rows, report.box_type)
        actual = intersection_size(a, b)
        if actual != v:
            raise AssertionError(f"witness pair for value {v} actually meets in {actual} cells")


def brute_force_latin_spectrum(n: int, *, reduction: str = "orbit", jobs: int = 1) -> SpectrumReport:
    """Exact I(n) by enumeration, for n <= 5, with re-verified witnesses."""
    if not 1 <= n <= MAX_LATIN_ORDER:
        raise ValueError(f"latin enumeration supports 1 <= n <= {MAX_LATIN_ORDER}, got {n}")
    report = _compute_spectrum(n, None, reduction, jobs)
    _verify_witnesses(report)
    return report


def brute_force_spectrum(h: int, w: int, *, reduction: str = "orbit", jobs: int = 1) -> SpectrumReport:
    """Exact I(h, w) by enumeration, for h, w >= 2 and h*w <= 6, with
    re-verified witnesses."""
    if h < 2 or w < 2 or h * w > MAX_SUDOKU_ORDER:
        raise ValueError(
            f"Sudoku enumeration supports h, w >= 2 and h*w <= {MAX_SUDOKU_ORDER}, got {(h, w)}"
        )
    box = BoxType(h, w)
    report = _compute_spectrum(box.n, box, reduction, jobs)
    _verify_witnesses(report)
    return report

"""The vectorized validators against the line-by-line reference.

``validate_latin`` and ``validate_sudoku`` answer by marking each cell's
(line, symbol) key over all constraint lines at once, and scan line by
line only to name the first repeat; ``SudokuSquare._all_checked`` runs
the same check once over a stack of grids.  The loops below are the
scan-everything validators they replaced, kept as the reference: both
must agree on ``ok`` and on the first violation, in row, column, box
order (in a stack, of the first bad grid), for valid squares and for
squares with a few cells edited.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra.core import (
    BoxType,
    BoxViolationError,
    LatinSquare,
    LatinViolationError,
    SudokuSquare,
    ValidationReport,
    Violation,
    _check_lines,
    as_grid,
    validate_latin,
    validate_sudoku,
)

BOX_TYPES = [(1, 1), (1, 5), (5, 1), (1, 6), (2, 2), (2, 3), (3, 2), (3, 4), (6, 6)]


def _first_duplicate(line):
    seen = set()
    for v in line.tolist():
        if v in seen:
            return v
        seen.add(v)
    return None


def reference_validate_latin(rows) -> ValidationReport:
    grid = as_grid(rows)
    n = grid.shape[0]
    for i in range(n):
        dup = _first_duplicate(grid[i])
        if dup is not None:
            return ValidationReport(False, Violation("row", (i,), dup))
    for j in range(n):
        dup = _first_duplicate(grid[:, j])
        if dup is not None:
            return ValidationReport(False, Violation("column", (j,), dup))
    return ValidationReport(True)


def reference_validate_sudoku(rows, h: int, w: int) -> ValidationReport:
    grid = as_grid(rows)
    report = reference_validate_latin(grid)
    if not report.ok:
        return report
    # box (p, q): band p of h rows, stack q of w columns
    for p in range(w):
        for q in range(h):
            block = grid[p * h : (p + 1) * h, q * w : (q + 1) * w].ravel()
            dup = _first_duplicate(block)
            if dup is not None:
                return ValidationReport(False, Violation("box", (p, q), dup))
    return ValidationReport(True)


def random_sudoku(h: int, w: int, rng) -> np.ndarray:
    """A pattern square of box type (h, w) moved by random Sudoku
    symmetries: relabelling, rows within bands, bands, columns within
    stacks, stacks."""
    n = h * w
    r = np.arange(n)
    grid = (w * (r[:, None] % h) + r[:, None] // h + r[None, :]) % n
    grid = rng.permutation(n)[grid]
    rows = (rng.permutation(w)[:, None] * h + np.array([rng.permutation(h) for _ in range(w)]))
    cols = (rng.permutation(h)[:, None] * w + np.array([rng.permutation(w) for _ in range(h)]))
    return grid[rows.ravel()][:, cols.ravel()]


def _spoiled(grid, rng, edits, shuffle):
    n = grid.shape[0]
    if shuffle:  # still latin, boxes mostly broken
        grid = grid[rng.permutation(n)][:, rng.permutation(n)]
    for _ in range(edits):
        grid[rng.integers(n), rng.integers(n)] = rng.integers(n)
    return grid


def test_random_sudoku_is_valid_for_every_box_type():
    rng = np.random.default_rng(0)
    for h, w in BOX_TYPES:
        assert reference_validate_sudoku(random_sudoku(h, w, rng), h, w).ok


@settings(max_examples=300, deadline=None)
@given(
    box=st.sampled_from(BOX_TYPES),
    seed=st.integers(0, 2**32 - 1),
    edits=st.integers(0, 3),
    shuffle=st.booleans(),
)
def test_vectorized_validators_match_loop_reference(box, seed, edits, shuffle):
    h, w = box
    rng = np.random.default_rng(seed)
    grid = _spoiled(random_sudoku(h, w, rng), rng, edits, shuffle)

    expected_latin = reference_validate_latin(grid)
    expected_sudoku = reference_validate_sudoku(grid, h, w)
    assert validate_latin(grid) == expected_latin
    assert validate_sudoku(grid, BoxType(h, w)) == expected_sudoku
    if expected_latin.ok:
        # a LatinSquare's cells get the same report as the grid's
        assert validate_sudoku(LatinSquare(grid), BoxType(h, w)) == expected_sudoku


STACK_BOX_TYPES = [(1, 5), (4, 1), (2, 2), (2, 3), (3, 2), (3, 4)]


@settings(max_examples=300, deadline=None)
@given(
    box=st.sampled_from(STACK_BOX_TYPES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 3),
    bad=st.sampled_from(["none", "any", "last"]),
)
def test_stacked_check_matches_loop_reference(box, seed, k, bad):
    h, w = box
    bt = BoxType(h, w)
    rng = np.random.default_rng(seed)
    grids = [random_sudoku(h, w, rng) for _ in range(k)]
    if bad == "any":
        grids = [_spoiled(g, rng, rng.integers(0, 3), rng.random() < 0.5) for g in grids]
    elif bad == "last":  # the first k - 1 grids are valid
        grids[-1] = _spoiled(grids[-1], rng, rng.integers(1, 4), rng.random() < 0.5)

    reports = [reference_validate_sudoku(g, h, w) for g in grids]
    expected = next((r for r in reports if not r.ok), ValidationReport(True))
    stack = np.stack(grids).astype(np.int64)
    assert _check_lines(stack, bt) == expected
    if expected.ok:
        squares = SudokuSquare._all_checked(stack.copy(), bt)
        assert [s.cells.tolist() for s in squares] == [g.tolist() for g in grids]
    else:
        error = BoxViolationError if expected.violation.kind == "box" else LatinViolationError
        with pytest.raises(error) as exc:
            SudokuSquare._all_checked(stack.copy(), bt)
        assert exc.value.violation == expected.violation
    for grid, report in zip(grids, reports):
        latin = reference_validate_latin(grid)
        assert validate_latin(grid) == latin
        if latin.ok:  # boxes only, from a LatinSquare
            assert validate_sudoku(LatinSquare(grid), bt) == report

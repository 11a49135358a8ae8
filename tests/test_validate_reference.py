"""The vectorized validators against the line-by-line reference.

``validate_latin`` and ``validate_sudoku`` answer with one bincount over
all constraint lines and scan line by line only to name the first repeat.
The loops below are the scan-everything validators they replaced, kept as
the reference: both must agree on ``ok`` and on the first violation, in
row, column, box order, for valid squares and for squares with a few
cells edited.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra.core import (
    BoxType,
    LatinSquare,
    ValidationReport,
    Violation,
    as_grid,
    validate_latin,
    validate_sudoku,
)

BOX_TYPES = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 4), (6, 6)]


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
    n = h * w
    rng = np.random.default_rng(seed)
    grid = random_sudoku(h, w, rng)
    if shuffle:  # still latin, boxes mostly broken
        grid = grid[rng.permutation(n)][:, rng.permutation(n)]
    for _ in range(edits):
        grid[rng.integers(n), rng.integers(n)] = rng.integers(n)

    expected_latin = reference_validate_latin(grid)
    expected_sudoku = reference_validate_sudoku(grid, h, w)
    assert validate_latin(grid) == expected_latin
    assert validate_sudoku(grid, BoxType(h, w)) == expected_sudoku
    if expected_latin.ok:
        # a LatinSquare has only its boxes checked; the report is the same
        assert validate_sudoku(LatinSquare(grid), BoxType(h, w)) == expected_sudoku

"""Exhaustive enumeration: counts, symmetry reduction, spectra."""

import numpy as np
import pytest

from sudoku_spectra import enumeration
from sudoku_spectra.core import (
    BoxType,
    SudokuSquare,
    intersection_size,
    validate_latin,
    validate_sudoku,
)
from sudoku_spectra.enumeration import (
    MAX_LATIN_ORDER,
    MAX_SUDOKU_ORDER,
    brute_force_latin_spectrum,
    brute_force_spectrum,
    enumerate_squares,
    orbit_representatives,
    position_group,
)

# reduced (first row 0..n-1), total and orbit counts of latin squares
LATIN_COUNTS = {1: (1, 1, 1), 2: (1, 2, 1), 3: (2, 12, 1), 4: (24, 576, 2), 5: (1344, 161280, 2)}


def test_latin_square_counts():
    for n, counts in LATIN_COUNTS.items():
        rep = brute_force_latin_spectrum(n)
        assert (rep.canonical_count, rep.total_count, rep.orbit_count) == counts
        assert rep.box_type == BoxType(1, n)
        if n <= 4:
            assert rep == brute_force_spectrum(1, n)


def test_enumerated_squares_are_valid_and_distinct():
    for n in (2, 3, 4):
        canon = enumerate_squares(n, BoxType(1, n))
        assert len({row.tobytes() for row in canon}) == len(canon)
        for flat in canon:
            grid = flat.reshape(n, n)
            assert list(grid[0]) == list(range(n))
            assert validate_latin(grid).ok


def test_sudoku_enumeration_respects_boxes():
    canon = enumerate_squares(4, BoxType(2, 2))
    assert len(canon) == 12
    for flat in canon:
        assert validate_sudoku(flat.reshape(4, 4), BoxType(2, 2)).ok


def test_sudoku_counts():
    rep22 = brute_force_spectrum(2, 2)
    assert (rep22.canonical_count, rep22.total_count) == (12, 288)
    assert rep22.orbit_count == 2


def test_position_group_maps_squares_to_squares():
    rng = np.random.default_rng(21)
    for n, bt in [(4, BoxType(1, 4)), (4, BoxType(4, 1)), (4, BoxType(2, 2)), (6, BoxType(2, 3))]:
        group = position_group(n, bt)
        canon = enumerate_squares(n, bt) if n <= 4 else None
        if canon is None:
            continue
        for _ in range(20):
            flat = canon[rng.integers(0, len(canon))]
            g = group[rng.integers(0, len(group))]
            assert validate_sudoku(flat[g].reshape(n, n), bt).ok


def test_orbit_reduction_covers_everything():
    n, bt = 4, BoxType(2, 2)
    canon = enumerate_squares(n, bt)
    group = position_group(n, bt)
    reps = orbit_representatives(canon, n, group)
    assert 0 < len(reps) <= len(canon)  # covering assert lives inside


def test_latin_spectra_small_orders():
    assert brute_force_latin_spectrum(1).values == {1}
    assert brute_force_latin_spectrum(2).values == {0, 4}
    assert brute_force_latin_spectrum(3).values == {0, 3, 9}
    assert brute_force_latin_spectrum(4).values == {0, 1, 2, 3, 4, 6, 8, 9, 12, 16}


def _all_pairs_spectrum(h, w):
    """The oracle: every square of box type (h, w), not just the canonical
    ones, against every other, with no symmetry reduction."""
    squares = enumerate_squares(h * w, BoxType(h, w), first_row_fixed=False)
    agree = (squares[:, None, :] == squares[None, :, :]).sum(axis=2)
    return frozenset(np.unique(agree).tolist()), len(squares)


def test_orbit_sweep_matches_all_pairs_oracle():
    # latin orders 3 and 4 and box (2, 2) are small enough to compare all pairs
    for h, w in [(1, 3), (1, 4), (2, 2)]:
        report = brute_force_spectrum(h, w)
        assert (report.values, report.total_count) == _all_pairs_spectrum(h, w)


def test_threaded_sweep_matches_sequential():
    for h, w in [(2, 2), (1, 4)]:
        one, two = brute_force_spectrum(h, w, jobs=1), brute_force_spectrum(h, w, jobs=2)
        assert one.values == two.values
        assert set(two.witnesses) == set(two.values)
        assert one.witnesses == two.witnesses
        for v, (a_rows, b_rows) in two.witnesses.items():
            a, b = SudokuSquare(a_rows, BoxType(h, w)), SudokuSquare(b_rows, BoxType(h, w))
            assert intersection_size(a, b) == v


def test_witnesses_round_trip():
    rep = brute_force_spectrum(2, 2)
    assert set(rep.witnesses) == set(rep.values)
    # brute_force_spectrum already recounted; spot check shape
    a, b = rep.witnesses[max(rep.values)]
    assert len(a) == len(b) == 4


def test_bounds_are_enforced(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("bounds must be checked before enumerating")

    monkeypatch.setattr(enumeration, "enumerate_squares", enumerate_nothing)
    with pytest.raises(ValueError):
        brute_force_latin_spectrum(MAX_LATIN_ORDER + 1)
    with pytest.raises(ValueError):
        brute_force_spectrum(2, 4)  # order 8 > 6
    for h, w in [(1, 6), (6, 1)]:  # order 6 fits, but latin order 6 is past its limit
        with pytest.raises(ValueError, match="latin enumeration supports"):
            brute_force_spectrum(h, w)
    assert MAX_SUDOKU_ORDER == 6

"""Exhaustive enumeration: counts, symmetry reduction, spectra."""

import numpy as np
import pytest

from sudoku_spectra import enumeration
from sudoku_spectra.core import (
    BoxType,
    LatinSquare,
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

# reduced (first row 0..n-1) and total counts of latin squares
LATIN_COUNTS = {1: (1, 1), 2: (1, 2), 3: (2, 12), 4: (24, 576), 5: (1344, 161280)}


def test_latin_square_counts():
    for n, (canonical, total) in LATIN_COUNTS.items():
        rep = brute_force_latin_spectrum(n)
        assert rep.canonical_count == canonical
        assert rep.total_count == total


def test_enumerated_squares_are_valid_and_distinct():
    for n in (2, 3, 4):
        canon = enumerate_squares(n, None)
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
    for n, bt in [(4, None), (4, BoxType(2, 2)), (6, BoxType(2, 3))]:
        group = position_group(n, bt)
        canon = enumerate_squares(n, bt) if n <= 4 else None
        if canon is None:
            continue
        for _ in range(20):
            flat = canon[rng.integers(0, len(canon))]
            g = group[rng.integers(0, len(group))]
            moved = flat[g].reshape(n, n)
            if bt is None:
                assert validate_latin(moved).ok
            else:
                assert validate_sudoku(moved, bt).ok


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


def test_reduction_modes_agree():
    # latin orders 3 and 4 and box (2, 2) are small enough to run all three ways
    for builder in (
        lambda red: brute_force_latin_spectrum(3, reduction=red),
        lambda red: brute_force_latin_spectrum(4, reduction=red),
        lambda red: brute_force_spectrum(2, 2, reduction=red),
    ):
        orbit = builder("orbit")
        symbol = builder("symbol")
        none = builder("none")
        assert orbit.values == symbol.values == none.values
        assert orbit.total_count == symbol.total_count == none.total_count


def test_threaded_sweep_matches_sequential():
    for builder, box_type in (
        (lambda jobs: brute_force_spectrum(2, 2, jobs=jobs), BoxType(2, 2)),
        (lambda jobs: brute_force_latin_spectrum(4, jobs=jobs), None),
    ):
        one, two = builder(1), builder(2)
        assert one.values == two.values
        assert set(two.witnesses) == set(two.values)
        assert one.witnesses == two.witnesses
        for v, (a_rows, b_rows) in two.witnesses.items():
            if box_type is None:
                a, b = LatinSquare(a_rows), LatinSquare(b_rows)
            else:
                a, b = SudokuSquare(a_rows, box_type), SudokuSquare(b_rows, box_type)
            assert intersection_size(a, b) == v


def test_witnesses_round_trip():
    rep = brute_force_spectrum(2, 2)
    assert set(rep.witnesses) == set(rep.values)
    # _verify_witnesses already recounted; spot check shape
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
        with pytest.raises(ValueError, match="h, w >= 2"):
            brute_force_spectrum(h, w)
    with pytest.raises(ValueError):
        brute_force_latin_spectrum(3, reduction="magic")
    assert MAX_SUDOKU_ORDER == 6

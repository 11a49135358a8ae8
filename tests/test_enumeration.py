"""Exhaustive enumeration: counts, symmetry reduction, spectra."""

import hashlib
import json

import numpy as np
import pytest

from sudoku_spectra import enumeration
from sudoku_spectra.core import (
    BoxType,
    validate_latin,
    validate_sudoku,
)
from sudoku_spectra.enumeration import (
    MAX_LATIN_ORDER,
    MAX_SUDOKU_ORDER,
    _fill_squares,
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


def _recursive_fill(n, group_of, first_row_fixed):
    """The oracle: a cell-at-a-time recursive backtracker in row-major order,
    trying symbols in ascending order, so its leaves come out sorted."""
    full = (1 << n) - 1
    grid, out = [0] * (n * n), []
    row, col, grp = [0] * n, [0] * n, [0] * n

    def place(pos, bit):
        grid[pos] = bit.bit_length() - 1
        for masks, i in ((row, pos // n), (col, pos % n), (grp, group_of[pos])):
            masks[i] ^= bit

    def fill(pos):
        if pos == n * n:
            out.append(grid.copy())
            return
        avail = full & ~(row[pos // n] | col[pos % n] | grp[group_of[pos]])
        while avail:
            bit = avail & -avail
            avail ^= bit
            place(pos, bit)
            fill(pos + 1)
            place(pos, bit)

    for c in range(n if first_row_fixed else 0):
        place(c, 1 << c)
    fill(n if first_row_fixed else 0)
    return np.array(out, dtype=np.uint8).reshape(len(out), n * n)


def _assert_kernel_matches_oracle(n, group_of, first_row_fixed):
    got = _fill_squares(n, group_of, first_row_fixed)
    want = _recursive_fill(n, group_of, first_row_fixed)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    keys = got.view(f"S{n * n}").ravel()  # strictly increasing rows
    assert (keys[1:] > keys[:-1]).all()
    return got


@pytest.mark.parametrize("first_row_fixed", [True, False])
@pytest.mark.parametrize("bt", [BoxType(1, n) for n in range(1, 6)] + [BoxType(2, 2)], ids=str)
def test_fill_kernel_matches_recursive_oracle(bt, first_row_fixed):
    got = _assert_kernel_matches_oracle(bt.n, bt.cell_boxes(), first_row_fixed)
    assert len(got) > 0


def test_fill_kernel_matches_recursive_oracle_at_2x3():
    bt = BoxType(2, 3)
    assert len(_assert_kernel_matches_oracle(6, bt.cell_boxes(), True)) == 39_168


def test_fill_kernel_matches_recursive_oracle_on_every_cage_grid(census):
    # a canonical cage grid's first row is often one cage, which no later
    # cell reads; the transpose also spreads the first row over cages
    for cls in census.value.classes:
        for grid in (cls.tiling.grid, tuple(zip(*cls.tiling.grid))):
            got = _assert_kernel_matches_oracle(5, [v for row in grid for v in row], True)
            assert len(got) == cls.canonical_solutions
            if cls.category == "unsolvable":
                assert got.shape == (0, 25) and got.dtype == np.uint8
    assert census.value.count("unsolvable") > 0


def _report_digest(report):
    dump = json.dumps({
        "values": sorted(report.values),
        "canonical_count": report.canonical_count,
        "total_count": report.total_count,
        "orbit_count": report.orbit_count,
        "witnesses": {str(v): report.witnesses[v] for v in sorted(report.witnesses)},
    }, sort_keys=True)
    return hashlib.sha256(dump.encode()).hexdigest()


# The enumeration order picks the orbit representatives and the witnesses,
# so these pins catch a change of order as well as a change of values.
REPORT_SHA256 = {
    (1, 1): "68965bf2de3169889fbb47724e225c98cb96a00c1bda29a5e92d94e809804a47",
    (1, 2): "32148f4475d81051a14957d01b3c21e69079d8d744a5e1b55030575083d0433a",
    (1, 3): "8f3eacadcce36e8812ec1a88e112d091a9a710aef0c0f7373e569d2cbfdc18fa",
    (1, 4): "7443b1369d061a1c0ffb03812390f158ec634d7bb44c866bdadeacec5402c948",
    (1, 5): "67d0e74a9577e5a3b9be094332bf980dcb5660d1a08544f25cb9d7c348bcdc61",
    (2, 2): "67da2e6cc65b4b2a0918c436cc5df2e56779cee73433e19b9b874e377f0d26d9",
}
REPORT_2X3_SHA256 = "23f84bfcace3bcd19f5515ce8d3479b3360b050d554e0d25dc2e6b1ac19145c4"
SQUARES_2X3_SHA256 = "5a0c1816ba4b3de1f6b08998f6a8a6687e84dedb8956d77a3ef1e0f6e4c53ca9"


# at 130 values a chunk, (1, 5) goes one pair at a time, and (1, 4) and
# (2, 2) go in chunks of five pairs that span representatives, the last short
@pytest.mark.parametrize("chunk_values", [enumeration._CHUNK_VALUES, 130],
                         ids=["default-chunks", "tiny-chunks"])
def test_brute_force_reports_and_2x3_squares_are_pinned(monkeypatch, chunk_values):
    monkeypatch.setattr(enumeration, "_CHUNK_VALUES", chunk_values)
    assert {hw: _report_digest(brute_force_spectrum(*hw)) for hw in REPORT_SHA256} == REPORT_SHA256
    squares = enumerate_squares(6, BoxType(2, 3))
    assert hashlib.sha256(squares.tobytes()).hexdigest() == SQUARES_2X3_SHA256


def test_2x3_report_is_pinned(sudoku_23_report):
    # 49 representatives by 39,168 squares in chunks of 1,456 pairs: chunks
    # span two representatives, and the last one is short
    assert _report_digest(sudoku_23_report.value) == REPORT_2X3_SHA256

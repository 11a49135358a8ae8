"""Exhaustive enumeration: counts, symmetry reduction, spectra."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from sudoku_spectra import enumeration
from sudoku_spectra.construct import latin_spectrum, upsilon
from sudoku_spectra.core import BoxType, validate_latin, validate_sudoku
from sudoku_spectra.enumeration import (
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


def _line_permutations(total, block):
    """Permutations of 0..total-1 respecting blocks of the given size:
    blocks may be permuted and lines within each block may be permuted."""
    count = total // block
    inner = list(itertools.permutations(range(block)))
    return [tuple(outer[b] * block + x for b in range(count) for x in choice[b])
            for outer in itertools.permutations(range(count))
            for choice in itertools.product(inner, repeat=count)]


def _full_position_group(n, box_type):
    """The oracle: every cell-position permutation preserving the family,
    as a (G, n*n) gather table, row-permutation major."""
    rho = np.array(_line_permutations(n, box_type.h), dtype=np.int32)
    gamma = np.array(_line_permutations(n, box_type.w), dtype=np.int32)
    cells = rho[:, None, :, None] * n + gamma[None, :, None, :]
    if box_type.h == box_type.w or 1 in (box_type.h, box_type.w):
        cells = np.stack([cells, cells.swapaxes(2, 3)], axis=2)
    return cells.reshape(-1, n * n)


def _orbits_by_images(canon, n, group):
    """The oracle: each orbit as the sorted indices of every image of its
    least square under every element of ``group``, found by binary search
    over the sorted rows, least squares ascending."""
    keys = canon.view(f"S{n * n}").ravel()
    covered = np.zeros(len(canon), dtype=bool)
    orbits = []
    for i in range(len(canon)):
        if covered[i]:
            continue
        transformed = canon[i][group]
        sigma = np.argsort(transformed[:, :n], axis=1).astype(np.uint8)
        images = np.take_along_axis(sigma, transformed, axis=1).view(keys.dtype).ravel()
        found = np.searchsorted(keys, images)
        assert (keys[found] == images).all()
        covered[found] = True
        orbits.append(np.unique(found).tolist())
    return orbits


def _all_valid(flat, box_type):
    """True iff every row of ``flat`` is a Sudoku square of the box type."""
    n = box_type.n
    grids = flat.reshape(-1, n, n)
    boxes = flat.reshape(-1, n * n)[:, np.argsort(box_type.cell_boxes(), kind="stable").reshape(n, n)]
    lines = np.concatenate([grids, grids.swapaxes(1, 2), boxes], axis=1)
    return bool((np.sort(lines, axis=2) == np.arange(n)).all())


def test_position_group_maps_squares_to_squares():
    for bt in [BoxType(1, 4), BoxType(4, 1), BoxType(2, 2), BoxType(2, 3)]:
        canon = enumerate_squares(bt.n, bt)
        group = position_group(bt.n, bt)
        assert 0 < len(group) <= 6
        assert all(_all_valid(canon[:, g], bt) for g in group)


@pytest.mark.parametrize("bt", [BoxType(1, 3), BoxType(1, 4), BoxType(2, 2), BoxType(2, 3)], ids=str)
def test_position_generators_generate_the_full_group(bt):
    n = bt.n
    full = {p.tobytes() for p in _full_position_group(n, bt)}
    generators = position_group(n, bt)
    closure = {np.arange(n * n, dtype=np.int32).tobytes()}
    frontier = np.arange(n * n, dtype=np.int32)[None]
    while len(frontier):
        images = frontier[:, generators].reshape(-1, n * n)
        new = {p.tobytes(): p for p in images if p.tobytes() not in closure}
        closure.update(new)
        frontier = np.array(list(new.values()), dtype=np.int32).reshape(-1, n * n)
    assert closure == full
    if bt == BoxType(2, 3):
        assert len(closure) == 3456


@pytest.mark.parametrize("bt", [BoxType(1, 4), BoxType(1, 5), BoxType(2, 2), BoxType(2, 3)], ids=str)
def test_orbits_from_generators_match_the_full_group(bt):
    n = bt.n
    canon = enumerate_squares(n, bt)
    full = _full_position_group(n, bt)
    reps = orbit_representatives(canon, n, position_group(n, bt))
    assert reps == [orbit[0] for orbit in _orbits_by_images(canon, n, full)]
    # any table of permutations works; the full one is quick only when small
    if len(full) * len(canon) < 10**6:
        assert orbit_representatives(canon, n, full) == reps


def test_orbit_reduction_covers_everything():
    n, bt = 4, BoxType(2, 2)
    canon = enumerate_squares(n, bt)
    reps = orbit_representatives(canon, n, position_group(n, bt))
    orbits = _orbits_by_images(canon, n, _full_position_group(n, bt))
    # each square lies in the orbit of exactly one representative
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(canon)))
    assert reps == [orbit[0] for orbit in orbits]


def test_a_permutation_leaving_the_family_is_reported():
    n, bt = 4, BoxType(2, 2)
    canon = enumerate_squares(n, bt)
    # swapping rows 1 and 2 moves cells across a band of boxes
    swap = np.arange(n * n).reshape(n, n)[[0, 2, 1, 3]].ravel()
    first = next(i for i, flat in enumerate(canon) if not _all_valid(flat[swap], bt))
    with pytest.raises(AssertionError, match=f"an image of square {first} is not in the enumerated family"):
        orbit_representatives(canon, n, swap[None])


def test_an_image_with_the_right_key_is_still_checked_cell_by_cell():
    n, bt = 4, BoxType(2, 2)
    canon = enumerate_squares(n, bt)
    # swapping two cells of the last row keeps every key cell (rows 1..n-2 by
    # columns 0..n-2), so each image has its own square's key
    swap = np.arange(n * n)
    swap[[12, 13]] = [13, 12]
    key = [r * n + c for r in range(1, n - 1) for c in range(n - 1)]
    assert (swap[key] == key).all()
    first = next(i for i, flat in enumerate(canon) if not _all_valid(flat[swap], bt))
    with pytest.raises(AssertionError, match=f"an image of square {first} is not in the enumerated family"):
        orbit_representatives(canon, n, swap[None])


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


class _Enumerated(Exception):
    """Raised by a stand-in enumerator: the order bound let the call through."""


def test_bounds_are_enforced(monkeypatch):
    def enumerate_sentinel(*args, **kwargs):
        raise _Enumerated

    monkeypatch.setattr(enumeration, "enumerate_squares", enumerate_sentinel)
    assert MAX_SUDOKU_ORDER == 6
    # one bound for every box type: latin order 6 is enumerated like (2, 3)
    for h, w in [(1, 6), (6, 1), (2, 3), (3, 2)]:
        with pytest.raises(_Enumerated):
            brute_force_spectrum(h, w)
    with pytest.raises(_Enumerated):
        brute_force_latin_spectrum(6)
    for h, w in [(1, 7), (7, 1), (2, 4), (3, 3)]:
        with pytest.raises(ValueError, match=rf"enumeration supports orders h\*w <= 6, got \({h}, {w}\)"):
            brute_force_spectrum(h, w)
    with pytest.raises(ValueError, match="enumeration supports"):
        brute_force_latin_spectrum(7)
    with pytest.raises(ValueError, match="orbit keys support"):
        orbit_representatives(np.zeros((0, 49), dtype=np.uint8), 7, np.zeros((0, 49), dtype=np.int32))


def test_an_order_that_is_not_h_times_w_is_refused_before_any_work(monkeypatch):
    def fill_nothing(*args, **kwargs):
        raise AssertionError("the order must be checked before filling")

    monkeypatch.setattr(enumeration, "_fill_squares", fill_nothing)
    with pytest.raises(ValueError, match=r"order 4 is not h\*w for box type 2x3"):
        enumerate_squares(4, BoxType(2, 3))
    with pytest.raises(ValueError, match=r"order 6 is not h\*w for box type 2x2"):
        enumerate_squares(6, BoxType(2, 2))
    with pytest.raises(ValueError, match=r"order 5 is not h\*w for box type 2x3"):
        position_group(5, BoxType(2, 3))


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
    got, family = _fill_squares(n, [group_of], first_row_fixed)
    want = _recursive_fill(n, group_of, first_row_fixed)
    assert family.shape == (len(got),) and not family.any()
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


def _assert_families_match_oracle(n, groups, first_row_fixed, oracle=_recursive_fill):
    """Run the kernel once on a table of group layouts and check each
    family's rows against the oracle run on that family alone."""
    got, family = _fill_squares(n, groups, first_row_fixed)
    assert got.dtype == np.uint8 and got.shape[1] == n * n and family.shape == (len(got),)
    assert (np.diff(family) >= 0).all()
    bounds = np.searchsorted(family, np.arange(len(groups) + 1))
    for f, group_of in enumerate(groups):
        rows = got[bounds[f]:bounds[f + 1]]
        assert rows.tobytes() == oracle(n, list(group_of), first_row_fixed).tobytes(), f
    return got, bounds


def _relabelled_oracle(n, group_of, first_row_fixed):
    """Every relabelling of the oracle's canonical squares, sorted: the
    squares with a free first row, as the symbol group acts freely."""
    canon = _recursive_fill(n, group_of, True)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    raw = perms[:, canon].reshape(-1, n * n)
    return raw[np.lexsort(raw.T[::-1])]


def test_multi_family_kernel_matches_the_oracle_on_every_cage_grid(census):
    classes = census.value.classes
    grids = [[v for row in cls.tiling.grid for v in row] for cls in classes]
    got, bounds = _assert_families_match_oracle(5, grids, True)
    assert np.diff(bounds).tolist() == [cls.canonical_solutions for cls in classes]
    assert census.value.count("unsolvable") == 4
    # with a free first row, every family against all relabellings of its
    # canonical squares, and a few (the unsolvable ones among them) against
    # the recursive oracle itself, which takes about 0.1 s a family
    got, bounds = _assert_families_match_oracle(5, grids, False, _relabelled_oracle)
    assert np.diff(bounds).tolist() == [cls.raw_solutions for cls in classes]
    picked = [i for i, cls in enumerate(classes) if cls.category == "unsolvable"]
    picked += range(0, 107, 20)
    for i in picked:
        assert got[bounds[i]:bounds[i + 1]].tobytes() == _recursive_fill(5, grids[i], False).tobytes()


@pytest.mark.parametrize("first_row_fixed", [True, False])
def test_multi_family_kernel_matches_the_oracle_on_mixed_box_types(first_row_fixed):
    # the families put cells 0, 1, 6-9, 14 and 15 in the same group and the
    # rest not, so the kernel reads both shared columns and per-family ones
    groups = [BoxType(1, 4).cell_boxes(), BoxType(2, 2).cell_boxes(), BoxType(1, 4).cell_boxes()]
    got, bounds = _assert_families_match_oracle(4, groups, first_row_fixed)
    sizes = (24, 12, 24) if first_row_fixed else (576, 288, 576)
    assert np.diff(bounds).tolist() == list(sizes)


def test_kernel_takes_zero_families():
    for table in ([], np.zeros((0, 25), dtype=np.int64)):
        got, family = _fill_squares(5, table, True)
        assert got.shape == (0, 25) and got.dtype == np.uint8 and family.shape == (0,)


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


def test_a_family_of_one_square_is_one_orbit():
    # at n = 2 the general path fails on this table, which maps both cells to one
    for n in (1, 2):
        canon = enumerate_squares(n, BoxType(1, n))
        assert len(canon) == 1
        assert orbit_representatives(canon, n, np.zeros((1, n * n), dtype=np.int32)) == [0]
    assert {hw: _report_digest(brute_force_spectrum(*hw)) for hw in [(1, 1), (1, 2), (1, 3)]} == {
        hw: REPORT_SHA256[hw] for hw in [(1, 1), (1, 2), (1, 3)]}


# Latin order 6, enumerated like (2, 3): 1,128,960 canonical squares in 17
# orbits; 21 s and 489 MB peak RSS on a 2-core Intel Xeon VM.
REPORT_1X6_SHA256 = "0573c39c7664ea63318a83d0b790ee0bc5d17aaee77042c3ca78ee44fe7dbec7"


@pytest.mark.slow
def test_latin_order_6_spectrum_is_upsilon_6():
    report = brute_force_spectrum(1, 6)
    assert report.values == latin_spectrum(6) == upsilon(6)
    assert (report.canonical_count, report.total_count, report.orbit_count) == (1_128_960, 812_851_200, 17)
    assert _report_digest(report) == REPORT_1X6_SHA256

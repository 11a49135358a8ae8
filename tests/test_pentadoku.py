"""Pentomino cage tilings of the 5x5 grid and their latin squares."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sudoku_spectra.construct import latin_spectrum
from sudoku_spectra.core import BoxType, LatinSquare, intersection_size, validate_latin
from sudoku_spectra import enumeration, pentadoku
from sudoku_spectra.enumeration import enumerate_squares
import sudoku_spectra
from sudoku_spectra.pentadoku import (
    CATEGORIES,
    CENSUS_CONVENTIONS,
    CENSUS_FIELDS,
    CensusReport,
    RIGID_SOLUTION,
    RIGID_TILING,
    FULL_SPECTRUM,
    PENTOMINO_BASE,
    PENTOMINO_ORIENTATIONS,
    RIGID_SPECTRUM,
    Tiling,
    _placements,
    _symmetries,
    canonical_cage_key,
    census_text,
    classify_all,
    classify_tiling,
    enumerate_tilings,
    shape_name,
    solve_cage_latin,
    tiling_spectrum,
)

EXPECTED_ORIENTATIONS = {
    "F": 8, "I": 2, "L": 8, "N": 8, "P": 8, "T": 4,
    "U": 4, "V": 4, "W": 4, "X": 1, "Y": 8, "Z": 4,
}


def test_twelve_free_pentominoes_and_63_orientations():
    assert set(PENTOMINO_BASE) == set(EXPECTED_ORIENTATIONS)
    total = 0
    for name, count in EXPECTED_ORIENTATIONS.items():
        oris = PENTOMINO_ORIENTATIONS[name]
        assert len(oris) == count, name
        assert len(set(oris)) == count
        total += count
        for cells in oris:
            assert shape_name(cells) == name
            assert min(r for r, _ in cells) == 0
            assert min(c for _, c in cells) == 0
    assert total == 63


def _grid_symmetries(grid):
    g = np.asarray(grid)
    for k in range(4):
        t = np.rot90(g, k)
        yield t
        yield t[:, ::-1]


def test_canonical_key_is_symmetry_invariant():
    keys = {canonical_cage_key(t) for t in _grid_symmetries(RIGID_TILING.grid)}
    assert keys == {canonical_cage_key(RIGID_TILING.grid)}
    # first-appearance labelled grids are never below their canonical form
    assert canonical_cage_key(RIGID_TILING.grid) <= RIGID_TILING.key()
    # every transform of every stored representative keys back to it
    for tiling in enumerate_tilings():
        for t in _grid_symmetries(tiling.grid):
            assert canonical_cage_key(t) == tiling.key()


def _reference_key(grid):
    """The oracle: the least cage string over the 8 symmetric images, each
    renumbered in first-appearance order, in plain Python."""
    keys = []
    for image in _grid_symmetries(grid):
        ids = {}
        keys.append("".join(ids.setdefault(v, str(len(ids))) for v in image.ravel().tolist()))
    return min(keys)


def test_canonical_key_matches_the_plain_reference():
    images = [t for tiling in enumerate_tilings() for t in _grid_symmetries(tiling.grid)]
    assert len(images) == 856
    rng = np.random.default_rng(2021)
    grids = images + list(rng.integers(0, 5, size=(200, 5, 5)))
    for grid in grids:
        assert canonical_cage_key(grid) == _reference_key(grid)
    # the table is the test's rotations and reflections, in its order
    assert _symmetries().tolist() == [
        t.ravel().tolist() for t in _grid_symmetries(np.arange(25).reshape(5, 5))]


def test_canonical_key_takes_any_five_ids_on_a_5x5_grid_only():
    with pytest.raises(ValueError, match=r"5x5 with at most 5 distinct ids, got \(6, 6\)"):
        canonical_cage_key([[0] * 6] * 6)
    with pytest.raises(ValueError, match=r"got \(2, 2\)"):
        canonical_cage_key([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match=r"at most 5 distinct ids, got \(5, 5\)"):
        canonical_cage_key(np.arange(25).reshape(5, 5) % 6)
    relabel = np.array([3, 7, 8, 9, 12])
    grid = np.asarray(RIGID_TILING.grid)
    assert canonical_cage_key(relabel[grid]) == canonical_cage_key(grid) == _reference_key(grid)
    assert canonical_cage_key([[4] * 5] * 5) == "0" * 25


def test_placement_table():
    names = list(PENTOMINO_ORIENTATIONS)
    table = _placements()
    assert len(table) == 25
    seen = set()
    for least, bucket in enumerate(table):
        for bit, mask, cells in bucket:
            assert len(set(cells)) == 5 and all(0 <= i < 25 for i in cells)
            assert min(cells) == least
            assert mask == sum(1 << i for i in cells)
            assert bit.bit_count() == 1
            assert shape_name([divmod(i, 5) for i in cells]) == names[bit.bit_length() - 1]
            seen.add(frozenset(cells))
    # shift every orientation over the whole grid and keep the in-grid ones
    shifted = sum(
        all(0 <= r + dr < 5 and 0 <= c + dc < 5 for r, c in cells)
        for orients in PENTOMINO_ORIENTATIONS.values()
        for cells in orients
        for dr in range(-4, 5)
        for dc in range(-4, 5)
    )
    assert sum(len(bucket) for bucket in table) == len(seen) == shifted == 571


def test_import_builds_no_tables_and_loads_no_process_pool():
    code = (
        "import sys, sudoku_spectra.pentadoku as p; "
        "print(p._placements.cache_info().currsize, p._symmetries.cache_info().currsize, "
        "p._placement_table.cache_info().currsize, "
        "'concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sudoku_spectra.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "0", "0", "False", "False"]


def test_tiling_validation():
    with pytest.raises(ValueError, match="must be 5x5"):
        Tiling.from_string("00|11")
    with pytest.raises(ValueError, match="pairwise distinct"):
        # five I columns: connected, right sizes, but all the same type
        Tiling.from_string("01234|01234|01234|01234|01234")
    with pytest.raises(ValueError, match="cage 0 has 10 cells"):
        Tiling.from_string("00000|00000|11111|22222|33333")
    with pytest.raises(ValueError, match="do not form a pentomino"):
        # cage 0 has five cells, but (1, 4) touches none of the other four
        Tiling.from_string("00001|11110|22222|33333|44444")
    for last in (5, -1):  # a cell of cage 5 or -1 is in no cage 0..4
        with pytest.raises(ValueError, match=r"cage ids must be 0\.\.4 covering the grid"):
            Tiling(tuple((i,) * 5 for i in range(4)) + ((4, 4, 4, 4, last),))
    # the shapes are read from the grid, never passed in
    with pytest.raises(TypeError):
        Tiling(RIGID_TILING.grid, ("I",) * 5)


def test_from_string_round_trip():
    assert RIGID_TILING.key() == "0011120001223312243344443"
    assert Tiling.from_string("|".join(
        "".join(str(v) for v in row) for row in RIGID_TILING.grid
    )) == RIGID_TILING
    assert RIGID_TILING.shapes == ("N", "V", "P", "W", "Y")


def test_enumeration_finds_107_classes():
    tilings = enumerate_tilings()
    assert len(tilings) == 107
    keys = {canonical_cage_key(t.grid) for t in tilings}
    assert len(keys) == 107
    # stored representatives are canonical and symmetry-stable
    for t in tilings[:10]:
        assert t.key() == canonical_cage_key(t.grid)
        flipped = canonical_cage_key(np.asarray(t.grid)[::-1, :])
        assert flipped == canonical_cage_key(t.grid)


def test_tilings_from_plain_rows_equal_tilings_from_grids_and_are_validated(monkeypatch):
    tilings = enumerate_tilings()
    rebuilt = tuple(Tiling.from_grid(t.grid) for t in tilings)
    assert tilings == rebuilt
    assert [t.grid for t in tilings] == [t.grid for t in rebuilt]
    assert [t.shapes for t in tilings] == [t.shapes for t in rebuilt]
    assert {type(v) for t in tilings for row in t.grid for v in row} == {int}
    # every cage of every tiling is still named, so Tiling.__post_init__ ran on each
    named = []
    monkeypatch.setattr(pentadoku, "shape_name", lambda cells: named.append(cells) or shape_name(cells))
    assert len(enumerate_tilings()) == 107
    assert len(named) == 107 * 5


CENSUS_SHA256 = "bca8549dd30b1b0bee21cacc2e1f10d01b10a94f22b202e69204e4c036cacbc4"


def test_tiling_list_and_census_csv_are_pinned(census):
    keys = "\n".join(t.key() for t in enumerate_tilings())
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "92255190f8d3b05d8d415eb95d97372058a3a7a1c398adc7247d5d17d6fb78c6"
    )
    assert hashlib.sha256(census_text(census.value, "csv").encode()).hexdigest() == CENSUS_SHA256


def test_census_is_pinned_at_tiny_sweep_chunks(monkeypatch):
    # 130 values a chunk: one (left, right) solution pair at a time
    monkeypatch.setattr(enumeration, "_CHUNK_VALUES", 130)
    assert hashlib.sha256(census_text(classify_all(), "csv").encode()).hexdigest() == CENSUS_SHA256


def test_rigid_tiling_has_unique_stored_solution():
    sols = solve_cage_latin(RIGID_TILING)
    assert sols == (RIGID_SOLUTION,)
    raw = solve_cage_latin(RIGID_TILING, up_to_relabelling=False)
    assert len(raw) == 120
    for sol in raw[:10]:
        assert validate_latin(sol.cells).ok
        grid = np.asarray(RIGID_TILING.grid)
        for cage in range(5):
            assert set(sol.cells[grid == cage].tolist()) == set(range(5))
    cls = classify_tiling(RIGID_TILING)
    assert cls.category == "rigid"
    assert cls.canonical_solutions == 1
    assert cls.raw_solutions == 120
    assert cls.spectrum == RIGID_SPECTRUM


def test_spectrum_matches_naive_all_pairs(census):
    # factored computation (canonical x relabelled) vs literal all pairs
    small = [
        c.tiling
        for c in sorted(census.value.classes, key=lambda c: c.canonical_solutions)
        if 0 < c.canonical_solutions <= 6
    ]
    assert len(small) >= 10
    checked = 0
    for tiling in small[:12]:
        raw = solve_cage_latin(tiling, up_to_relabelling=False)
        flats = np.array([s.cells.ravel() for s in raw], dtype=np.int16)
        naive = set()
        for row in flats:
            naive.update(np.unique((flats == row).sum(axis=1)).tolist())
        assert tiling_spectrum(tiling) == frozenset(naive)
        checked += 1
    assert checked >= 10


def _cage_filtered(squares: np.ndarray, tiling: Tiling) -> np.ndarray:
    """The rows of an (N, 25) square array whose cages hold all five symbols."""
    cages = np.argsort(np.asarray(tiling.grid).ravel(), kind="stable").reshape(5, 5)
    held = np.sort(squares[:, cages], axis=2)
    return squares[(held == np.arange(5)).all(axis=(1, 2))]


def test_cage_solutions_are_the_cage_respecting_latin_squares(census):
    canonical = enumerate_squares(5, BoxType(1, 5))
    raw = enumerate_squares(5, BoxType(1, 5), first_row_fixed=False)
    classes = census.value.classes
    picked = [c.tiling for c in classes if c.category in ("unsolvable", "rigid")]
    picked += [c.tiling for c in classes if c.category in ("full", "partial")][::16]
    assert len(picked) >= 10
    for tiling in picked:
        for pinned, squares in ((True, canonical), (False, raw)):
            sols = solve_cage_latin(tiling, up_to_relabelling=pinned)
            flats = np.array([s.cells.ravel() for s in sols], dtype=np.uint8).reshape(-1, 25)
            assert np.array_equal(flats, _cage_filtered(squares, tiling)), (tiling.key(), pinned)


def test_census_summary(census):
    report = census.value
    assert len(report.classes) == 107
    assert report.summary() == (4, 58, 44, 1)
    assert report.summary() == tuple(report.count(c) for c in CATEGORIES)


def test_census_category_properties(census):
    report = census.value
    for cls in report.classes:
        assert cls.raw_solutions == 120 * cls.canonical_solutions
        if cls.category == "unsolvable":
            assert cls.canonical_solutions == 0 and cls.spectrum == frozenset()
        elif cls.category == "full":
            assert cls.spectrum == FULL_SPECTRUM and cls.missing == frozenset()
        elif cls.category == "partial":
            assert cls.canonical_solutions > 1
            assert cls.missing and cls.missing <= {1, 14, 16, 17, 18}
        else:
            assert cls.canonical_solutions == 1
    assert max(c.canonical_solutions for c in report.classes) == 34


def test_the_single_rigid_class_is_the_worked_example(census):
    rigid = census.value.by_category("rigid")
    assert len(rigid) == 1
    assert canonical_cage_key(rigid[0].tiling.grid) == canonical_cage_key(RIGID_TILING.grid)


def test_full_spectrum_matches_order_five_latin_spectrum():
    assert FULL_SPECTRUM == latin_spectrum(5)
    assert RIGID_SPECTRUM == {5 * k for k in range(4)} | {25}
    assert RIGID_SPECTRUM < FULL_SPECTRUM


def test_census_csv_output(census):
    text = census_text(census.value, "csv")
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == len(CENSUS_CONVENTIONS)
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(rows) == 107
    assert sum(1 for r in rows if r["category"] == "rigid") == 1
    for r in rows:
        assert int(r["raw_solutions"]) == 120 * int(r["canonical_solutions"])
        if r["category"] != "partial":
            assert r["missing"] == ""


def test_census_json_output(census):
    obj = json.loads(census_text(census.value, "json"))
    assert obj["conventions"] == CENSUS_CONVENTIONS
    assert len(obj["tilings"]) == 107
    assert all(tuple(row) == CENSUS_FIELDS for row in obj["tilings"])
    cats = {t["category"] for t in obj["tilings"]}
    assert cats == set(CATEGORIES)
    with pytest.raises(ValueError):
        census_text(census.value, "xml")


def test_an_empty_census_writes_its_header():
    report = CensusReport(())
    lines = census_text(report, "csv").splitlines()
    assert len(lines) == len(CENSUS_CONVENTIONS) + 1
    assert lines[-1] == ",".join(CENSUS_FIELDS)
    obj = json.loads(census_text(report, "json"))
    assert obj == {"conventions": CENSUS_CONVENTIONS, "tilings": []}


def test_intersections_of_rigid_solutions_hit_rigid_values_only():
    raw = solve_cage_latin(RIGID_TILING, up_to_relabelling=False)
    rng = np.random.default_rng(99)
    for _ in range(200):
        i, j = rng.integers(0, len(raw), 2)
        assert intersection_size(raw[i], raw[j]) in RIGID_SPECTRUM
    assert isinstance(raw[0], LatinSquare)

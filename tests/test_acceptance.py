"""Acceptance checks: one test per headline guarantee of the package.

Each test prints a single PASS line with its measurements when it
succeeds; pytest -v shows one pass/fail line per guarantee either way.
Budgets are generous wall-clock ceilings, not performance targets.
"""

import time

import numpy as np

from sudoku_spectra.construct import (
    forbidden_values,
    kronecker,
    sudoku_reorder,
    sudoku_spectrum,
    triangle_product,
)
from sudoku_spectra.core import (
    BoxType,
    SudokuSquare,
    cyclic_square,
    intersection_size,
    validate_latin,
    validate_sudoku,
)
from sudoku_spectra.markov import random_latin_square, sample_sudoku
from sudoku_spectra.pentadoku import (
    RIGID_SOLUTION,
    RIGID_TILING,
    FULL_SPECTRUM,
    RIGID_SPECTRUM,
    canonical_cage_key,
    solve_cage_latin,
)
from sudoku_spectra.seeds import SEED_TYPES, load_seed_set
from sudoku_spectra.spectrum import PairCache, realize_sudoku_pair
from tests.test_construct import PRODUCT_2x3, REORDERED_2x3

KNOWN_LATIN_SPECTRA = {
    1: {1},
    2: {0, 4},
    3: {0, 3, 9},
    4: {0, 1, 2, 3, 4, 6, 8, 9, 12, 16},
}

REALIZE_TYPES = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (5, 5)]


def test_exhaustive_latin_spectra_match_theory(latin_brute_reports):
    reports, elapsed = latin_brute_reports.value, latin_brute_reports.elapsed
    for n, expected in KNOWN_LATIN_SPECTRA.items():
        assert reports[n].values == expected, f"order {n}"
    assert elapsed < 60.0
    print(f"PASS exhaustive latin spectra n=1..4 exact ({elapsed:.1f}s)")


def test_exhaustive_sudoku_spectra_match_theory(sudoku_22_report, sudoku_23_report):
    r22, r23 = sudoku_22_report.value, sudoku_23_report.value
    assert r22.values == sudoku_spectrum(2, 2) == KNOWN_LATIN_SPECTRA[4]
    assert r23.values == sudoku_spectrum(2, 3) == frozenset(range(31)) | {32, 36}
    assert (r22.total_count, r23.total_count) == (288, 28_200_960)
    elapsed = sudoku_22_report.elapsed + sudoku_23_report.elapsed
    assert elapsed < 600.0
    print(f"PASS exhaustive box spectra (2,2) and (2,3) exact ({elapsed:.1f}s)")


def test_seed_fixtures_verify_exactly():
    # a fresh load recomputes every label and raises ParseError on a mismatch
    checked = 0
    for h, w in SEED_TYPES:
        seed_set = load_seed_set(h, w)
        ref = seed_set.reference
        assert intersection_size(ref, ref) == (h * w) ** 2
        for label, square in seed_set.entries:
            assert intersection_size(square, ref) == label, (h, w, label)
        checked += len(seed_set.entries) + 1
    assert checked == 216
    print(f"PASS all {checked} stored intersection labels recomputed exactly")


def test_realizer_covers_every_achievable_target():
    rng = np.random.default_rng(2025)
    cache = PairCache()
    t0 = time.perf_counter()
    realized = 0
    methods = {"seed": 0, "product": 0}
    for h, w in REALIZE_TYPES:
        for t in sorted(sudoku_spectrum(h, w)):
            cert = realize_sudoku_pair(h, w, t, rng, cache=cache)
            assert cert.verify() == t
            assert intersection_size(cert.a, cert.b) == t
            assert cert.a.box_type == cert.b.box_type == BoxType(h, w)
            methods[cert.method] += 1
            realized += 1
    elapsed = time.perf_counter() - t0
    assert realized == sum(len(sudoku_spectrum(h, w)) for h, w in REALIZE_TYPES)
    assert elapsed < 900.0
    print(
        f"PASS realized {realized} targets over {len(REALIZE_TYPES)} box types "
        f"({methods['seed']} from seeds, {methods['product']} by product, {elapsed:.1f}s)"
    )


def test_block_product_validity_and_additivity():
    rng = np.random.default_rng(77)

    def family(n, m):
        return [[random_latin_square(m, rng) for _ in range(n)] for _ in range(n)]

    t0 = time.perf_counter()
    for _ in range(1000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        outer = random_latin_square(n, rng)
        prod = triangle_product(outer, family(n, m))
        assert validate_latin(prod.cells).ok
        s = sudoku_reorder(prod, n, m)
        assert validate_sudoku(s.cells, BoxType(n, m)).ok
    failures = 0
    for _ in range(1000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        outer = random_latin_square(n, rng)
        fa, fb = family(n, m), family(n, m)
        expect = sum(
            intersection_size(fa[i][k], fb[i][k])
            for i in range(n)
            for k in range(n)
        )
        got = intersection_size(triangle_product(outer, fa), triangle_product(outer, fb))
        failures += got != expect
    assert failures == 0
    elapsed = time.perf_counter() - t0
    print(f"PASS 1000 block products valid and 1000 additivity checks exact ({elapsed:.1f}s)")


def test_kronecker_multiplicativity_and_worked_product():
    prod = kronecker(cyclic_square(2), cyclic_square(3))
    assert prod.rows() == tuple(map(tuple, PRODUCT_2x3))
    assert sudoku_reorder(prod, 2, 3).rows() == tuple(map(tuple, REORDERED_2x3))
    rng = np.random.default_rng(78)
    t0 = time.perf_counter()
    for _ in range(1000):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        l1, l2 = random_latin_square(n, rng), random_latin_square(n, rng)
        m1, m2 = random_latin_square(m, rng), random_latin_square(m, rng)
        assert intersection_size(kronecker(l1, m1), kronecker(l2, m2)) == (
            intersection_size(l1, l2) * intersection_size(m1, m2)
        )
    elapsed = time.perf_counter() - t0
    print(f"PASS worked product grids exact and 1000 multiplicativity checks ({elapsed:.1f}s)")


def test_cage_census_counts_and_rigid_class(census):
    report, elapsed = census.value, census.elapsed
    assert len(report.classes) == 107
    assert report.summary() == (4, 58, 44, 1)
    rigid = report.by_category("rigid")[0]
    assert canonical_cage_key(rigid.tiling.grid) == canonical_cage_key(RIGID_TILING.grid)
    assert rigid.spectrum == RIGID_SPECTRUM
    assert solve_cage_latin(RIGID_TILING) == (RIGID_SOLUTION,)
    assert len(solve_cage_latin(RIGID_TILING, up_to_relabelling=False)) == 120
    for cls in report.by_category("full"):
        assert cls.spectrum == FULL_SPECTRUM
    assert elapsed < 600.0
    print(
        f"PASS census of 107 cage tilings: 4 unsolvable, 58 full, 44 partial, "
        f"1 rigid (the worked example; {elapsed:.1f}s)"
    )


def _box_preserving_variants(base: SudokuSquare, count: int, rng) -> np.ndarray:
    """Flattened pool of valid squares of one box type, generated by
    box-respecting row/column permutations and symbol relabellings."""
    h, w = base.box_type.h, base.box_type.w
    n = base.order
    pool = [base.cells.ravel()]
    while len(pool) < count:
        rows = np.empty(n, dtype=np.int64)
        beta = rng.permutation(w)
        for p in range(w):
            inner = rng.permutation(h)
            rows[p * h : (p + 1) * h] = beta[p] * h + inner
        cols = np.empty(n, dtype=np.int64)
        sigma = rng.permutation(h)
        for q in range(h):
            inner = rng.permutation(w)
            cols[q * w : (q + 1) * w] = sigma[q] * w + inner
        rho = rng.permutation(n)
        cells = rho[base.cells[rows][:, cols]]
        # constructor re-validates; box structure survives these moves
        pool.append(SudokuSquare(cells, base.box_type).cells.ravel())
    return np.array(pool, dtype=np.int16)


def test_random_pairs_never_hit_forbidden_values():
    rng = np.random.default_rng(79)
    types = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5)]
    # oversample so at least 10^5 pairs survive the distinctness filter
    per_type = 110_000 // len(types) + 1
    t0 = time.perf_counter()
    checked = 0
    for h, w in types:
        n = h * w
        gaps = np.array(sorted(forbidden_values(n)))
        pool = _box_preserving_variants(sample_sudoku(h, w, rng), 48, rng)
        # a second anchor square diversifies the pool beyond one orbit
        pool2 = _box_preserving_variants(sample_sudoku(h, w, rng), 16, rng)
        pool = np.concatenate([pool, pool2])
        i = rng.integers(0, len(pool), per_type)
        j = rng.integers(0, len(pool), per_type)
        counts = (pool[i] == pool[j]).sum(axis=1)
        distinct = counts < n * n
        assert distinct.sum() > per_type * 9 // 10
        hits = np.isin(counts[distinct], gaps)
        assert not hits.any(), f"forbidden intersection at box type {(h, w)}"
        checked += int(distinct.sum())
    elapsed = time.perf_counter() - t0
    assert checked >= 100_000
    print(
        f"PASS {checked} random distinct pairs avoided every forbidden value "
        f"across {len(types)} box types ({elapsed:.1f}s)"
    )

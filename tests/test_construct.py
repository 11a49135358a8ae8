"""Products, spectra, and target decomposition."""

import numpy as np
import pytest

from sudoku_spectra.construct import (
    FORBIDDEN_OFFSETS,
    ORDER4_SPLITS,
    Decomposition,
    SeedRequired,
    decompose_target,
    forbidden_values,
    kronecker,
    latin_spectrum,
    reorder_permutation,
    sudoku_reorder,
    sudoku_spectrum,
    triangle_product,
    upsilon,
)
from sudoku_spectra.core import (
    BoxType,
    LatinSquare,
    MalformedInputError,
    cyclic_square,
    intersection_size,
    validate_sudoku,
)
from sudoku_spectra.markov import random_latin_square, sample_sudoku

# Product of the order-2 and order-3 cyclic squares, then its row reorder
# into a box-type (2, 3) square.  Worked out by hand once; frozen here.
PRODUCT_2x3 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 1, 2, 0],
    [5, 3, 4, 2, 0, 1],
]
REORDERED_2x3 = [
    [0, 1, 2, 3, 4, 5],
    [3, 4, 5, 0, 1, 2],
    [1, 2, 0, 4, 5, 3],
    [4, 5, 3, 1, 2, 0],
    [2, 0, 1, 5, 3, 4],
    [5, 3, 4, 2, 0, 1],
]


def test_kronecker_worked_example():
    prod = kronecker(cyclic_square(2), cyclic_square(3))
    assert prod.rows() == tuple(map(tuple, PRODUCT_2x3))


def test_sudoku_reorder_worked_example():
    prod = kronecker(cyclic_square(2), cyclic_square(3))
    s = sudoku_reorder(prod, 2, 3)
    assert s.box_type == BoxType(2, 3)
    assert s.rows() == tuple(map(tuple, REORDERED_2x3))


def test_kronecker_entry_formula():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        l, mm = random_latin_square(n, rng), random_latin_square(m, rng)
        prod = kronecker(l, mm)
        assert prod.order == n * m
        for _ in range(12):
            i1, i2 = rng.integers(0, n, 2)
            j1, j2 = rng.integers(0, m, 2)
            expect = l.cells[i1, i2] * m + mm.cells[j1, j2]
            assert prod.cells[i1 * m + j1, i2 * m + j2] == expect


def test_kronecker_intersection_multiplies():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        l1, l2 = random_latin_square(n, rng), random_latin_square(n, rng)
        m1, m2 = random_latin_square(m, rng), random_latin_square(m, rng)
        lhs = intersection_size(kronecker(l1, m1), kronecker(l2, m2))
        assert lhs == intersection_size(l1, l2) * intersection_size(m1, m2)


def test_constant_family_reduces_to_kronecker():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        l, inner = random_latin_square(n, rng), random_latin_square(m, rng)
        assert triangle_product(l, [[inner] * n for _ in range(n)]) == kronecker(l, inner)


def _random_family(n, m, rng):
    return [[random_latin_square(m, rng) for _ in range(n)] for _ in range(n)]


def test_triangle_product_is_latin_and_reorders_to_sudoku():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        l = random_latin_square(n, rng)
        prod = triangle_product(l, _random_family(n, m, rng))
        assert prod.order == n * m  # constructor already checked latinness
        s = sudoku_reorder(prod, n, m)
        assert validate_sudoku(s.cells, BoxType(n, m)).ok


def test_triangle_intersection_adds_over_slots():
    # same outer square: overlap is the sum of the slotwise member overlaps
    rng = np.random.default_rng(15)
    for _ in range(40):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        l = random_latin_square(n, rng)
        fam_a, fam_b = _random_family(n, m, rng), _random_family(n, m, rng)
        # slots are indexed by (row bundle, outer symbol): n rows, n symbols
        expect = sum(
            intersection_size(fam_a[i][k], fam_b[i][k])
            for i in range(n)
            for k in range(n)
        )
        got = intersection_size(triangle_product(l, fam_a), triangle_product(l, fam_b))
        assert got == expect
        # the Sudoku reorder moves both squares the same way
        assert (
            intersection_size(
                sudoku_reorder(triangle_product(l, fam_a), n, m),
                sudoku_reorder(triangle_product(l, fam_b), n, m),
            )
            == expect
        )


def test_different_outer_symbols_contribute_nothing():
    # blocks whose outer symbols differ use disjoint symbol bundles
    rng = np.random.default_rng(16)
    l1 = cyclic_square(3)
    l2 = LatinSquare(((l1.cells + 1) % 3))
    fam = _random_family(3, 3, rng)
    assert intersection_size(l1, l2) == 0
    assert intersection_size(triangle_product(l1, fam), triangle_product(l2, fam)) == 0


def test_reorder_permutation_layout():
    for n, m in [(2, 3), (3, 4), (4, 2)]:
        perm = reorder_permutation(n, m)
        assert sorted(perm.tolist()) == list(range(n * m))
        prod = kronecker(cyclic_square(n), cyclic_square(m))
        s = sudoku_reorder(prod, n, m)
        for i in range(n):
            for j in range(m):
                assert np.array_equal(s.cells[j * n + i], prod.cells[i * m + j])


def test_square_family_validation():
    sq2, sq3 = cyclic_square(2), cyclic_square(3)
    outer = cyclic_square(2)
    with pytest.raises(MalformedInputError):
        triangle_product(outer, [[sq2], [sq2, sq2]])
    with pytest.raises(MalformedInputError):
        triangle_product(outer, [[sq2, sq3], [sq2, sq2]])
    with pytest.raises(MalformedInputError):
        triangle_product(outer, [])
    with pytest.raises(MalformedInputError):
        triangle_product(cyclic_square(3), [[sq2] * 2] * 2)
    with pytest.raises(MalformedInputError):
        triangle_product(outer, [[sq2, sq2.cells], [sq2, sq2]])


def test_a_member_of_box_type_1_m_is_a_latin_square():
    outer, member = LatinSquare([[0, 1], [1, 0]]), sample_sudoku(1, 3, 0)
    assert member == LatinSquare(member.cells) and member.box_type == BoxType(1, 3)
    assert triangle_product(outer, [[member] * 2] * 2) == kronecker(outer, LatinSquare(member.cells))
    # any other box type is still refused, though an (m, 1) square is latin too
    for other in (sample_sudoku(3, 1, 0), sample_sudoku(1, 2, 0).transposed(), sample_sudoku(2, 2, 0)):
        with pytest.raises(MalformedInputError, match="family members must be LatinSquares of one order"):
            triangle_product(outer, [[other] * 2] * 2)


def test_spectrum_values():
    assert latin_spectrum(1) == {1}
    assert latin_spectrum(2) == {0, 4}
    assert latin_spectrum(3) == {0, 3, 9}
    assert latin_spectrum(4) == {0, 1, 2, 3, 4, 6, 8, 9, 12, 16}
    assert latin_spectrum(5) == upsilon(5) == set(range(20)) | {21, 25}
    assert sudoku_spectrum(2, 2) == latin_spectrum(4)
    assert sudoku_spectrum(2, 3) == upsilon(6)
    assert sudoku_spectrum(3, 3) == upsilon(9)
    # memoized: repeated calls share one immutable frozenset
    assert latin_spectrum(7) is latin_spectrum(7) is upsilon(7)
    assert sudoku_spectrum(3, 4) is sudoku_spectrum(3, 4)
    with pytest.raises(ValueError):
        upsilon(2)
    assert sudoku_spectrum(1, 5) == sudoku_spectrum(5, 1) == latin_spectrum(5)
    with pytest.raises(ValueError):
        sudoku_spectrum(0, 4)
    with pytest.raises(ValueError):
        latin_spectrum(0)


def test_forbidden_values_are_the_near_full_gaps():
    for n in (3, 4, 5, 6, 9, 12):
        gaps = forbidden_values(n)
        assert gaps == {n * n - d for d in FORBIDDEN_OFFSETS}
        assert not gaps & latin_spectrum(n)
    for h, w in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]:
        assert not forbidden_values(h * w) & sudoku_spectrum(h, w)


def test_order4_splits_cover_exactly_the_gaps():
    spec4 = latin_spectrum(4)
    missing = set(range(17)) - spec4
    assert set(ORDER4_SPLITS) == missing
    for r, (k, l) in ORDER4_SPLITS.items():
        assert k + l == r
        assert k in spec4 and l in spec4


def test_decompose_every_achievable_target():
    for h, w in [(2, 4), (3, 4), (2, 5), (3, 5), (2, 6)]:
        n = h * w
        seeds_expected = (
            {n * n - 11, n * n - 9, n * n - 6} if w == 4 else set()
        )
        for t in sorted(sudoku_spectrum(h, w)):
            out = decompose_target(t, h, w)
            if isinstance(out, SeedRequired):
                assert t in seeds_expected, (h, w, t)
                continue
            assert isinstance(out, Decomposition)
            assert sum(out.parts) == t
            assert len(out.parts) == h * h
            assert all(p in latin_spectrum(w) for p in out.parts)
            seeds_expected.discard(t)
        assert not seeds_expected or all(
            isinstance(decompose_target(t, h, w), SeedRequired) for t in seeds_expected
        )


def test_decompose_rejects_bad_targets():
    with pytest.raises(ValueError):
        decompose_target(63, 2, 4)  # n^2 - 1 is impossible
    with pytest.raises(ValueError):
        decompose_target(4, 2, 3)  # w < 4 has no product decomposition
    with pytest.raises(ValueError):
        decompose_target(4, 1, 4)
    with pytest.raises(MalformedInputError):
        Decomposition(9, 2, 4, (9,))  # wrong slot count
    with pytest.raises(MalformedInputError):
        Decomposition(9, 2, 4, (9, 1, 0, 0))  # wrong sum
    with pytest.raises(MalformedInputError):
        Decomposition(5, 2, 4, (5, 0, 0, 0))  # 5 not achievable at order 4

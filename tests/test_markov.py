"""The backtracking sampler: Sudoku squares and latin squares."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra import markov
from sudoku_spectra.core import BoxType, validate_latin, validate_sudoku
from sudoku_spectra.markov import SampleError, random_latin_square, sample_sudoku
from sudoku_spectra.spectrum import PairCache, realize_latin_pair


def test_rng_passthrough_and_seeding():
    # a passed Generator is used as is, so consecutive calls continue its
    # stream; an int seed repeats its square
    shared = np.random.default_rng(123)
    first, second = sample_sudoku(2, 3, shared), sample_sudoku(2, 3, shared)
    fresh = np.random.default_rng(123)
    assert sample_sudoku(2, 3, fresh) == first
    assert sample_sudoku(2, 3, fresh) == second
    assert first != second
    assert sample_sudoku(2, 3, 123) == sample_sudoku(2, 3, 123) == first


def test_samplers_are_deterministic_in_the_seed():
    assert random_latin_square(6, 42) == random_latin_square(6, 42)
    assert sample_sudoku(2, 3, 42) == sample_sudoku(2, 3, 42)
    assert random_latin_square(6, 42) != random_latin_square(6, 43)


def test_sampled_squares_have_the_right_shape():
    rng = np.random.default_rng(50)
    for n in (1, 2, 5, 8):
        sq = random_latin_square(n, rng)
        assert sq.order == n  # latin validity enforced by the constructor
    for h, w in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        s = sample_sudoku(h, w, rng)
        assert s.box_type == BoxType(h, w)
        assert validate_sudoku(s.cells, s.box_type).ok


def test_samples_vary():
    rng = np.random.default_rng(51)
    seen = {sample_sudoku(2, 3, rng) for _ in range(30)}
    assert len(seen) >= 25


def test_sampler_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(markov, "_BUDGET", 0)
    with pytest.raises(SampleError, match=r"in 0 units of 2n\^2 = 50 backtracking nodes"):
        random_latin_square(5, 0)


def test_attempts_follow_the_luby_schedule_up_to_the_budget(monkeypatch):
    # every attempt fails, so the budget is spent in full: 1, 1, 2, 1, 1,
    # 2, 4, ... units of 2n^2 nodes, stopping where the next would pass 20
    budgets = []

    def failing(n, group_of, rng, budget):
        budgets.append(budget // (2 * n * n))

    monkeypatch.setattr(markov, "_sample_grid", failing)
    monkeypatch.setattr(markov, "_BUDGET", 20)
    with pytest.raises(SampleError, match=r"\(2, 3\) Sudoku square in 20 units of 2n\^2 = 72"):
        sample_sudoku(2, 3, 0)
    assert budgets == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2]


def test_large_orders_fill_without_recursion(monkeypatch):
    # the fill is iterative: order 33 needs 1089 levels, beyond the
    # interpreter's default recursion limit of 1000; one attempt is all
    # the budget allows, and the kernel finds the same square in n^2
    # nodes, which leave no room to back up, so each level places its
    # first option
    monkeypatch.setattr(markov, "_BUDGET", 1)
    square = random_latin_square(33, 0)
    assert square.order == 33
    assert validate_latin(square.cells).ok
    rows = tuple(BoxType(1, 33).cell_boxes())
    grid = markov._sample_grid(33, rows, np.random.default_rng(0), 33 * 33)
    assert grid == square.cells.ravel().tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_37_latin_squares_are_quick_and_repeatable(seed):
    square = random_latin_square(37, seed)
    assert square.order == 37
    assert random_latin_square(37, seed) == square


def test_order_25_sudoku_squares_are_sampled():
    square = sample_sudoku(5, 5, 0)
    assert validate_sudoku(square.cells, BoxType(5, 5)).ok


def test_order_36_sudoku_attempt_ends_within_its_budget(monkeypatch):
    monkeypatch.setattr(markov, "_BUDGET", 1)
    try:
        square = sample_sudoku(6, 6, 0)
    except SampleError:
        return
    assert validate_sudoku(square.cells, BoxType(6, 6)).ok


def test_every_2x2_square_is_reached():
    # the search gives every square positive probability: 5,000 draws at
    # box type (2, 2) meet all 288 of its Sudoku squares
    rng = np.random.default_rng(60)
    assert len({sample_sudoku(2, 2, rng) for _ in range(5000)}) == 288


def test_seeded_outputs_are_pinned():
    # recorded literals: a change here means the RNG draws moved
    assert sample_sudoku(2, 3, 42).cells.tolist() == [
        [3, 1, 0, 2, 4, 5],
        [2, 4, 5, 1, 0, 3],
        [4, 0, 1, 3, 5, 2],
        [5, 3, 2, 4, 1, 0],
        [1, 5, 3, 0, 2, 4],
        [0, 2, 4, 5, 3, 1],
    ]
    latin_7 = [
        [3, 2, 4, 1, 0, 5, 6],
        [6, 1, 3, 5, 2, 0, 4],
        [1, 6, 0, 2, 5, 4, 3],
        [0, 3, 5, 4, 1, 6, 2],
        [4, 0, 1, 6, 3, 2, 5],
        [2, 5, 6, 0, 4, 3, 1],
        [5, 4, 2, 3, 6, 1, 0],
    ]
    assert random_latin_square(7, 42).cells.tolist() == latin_7
    # s = 45 at order 7 comes from the (1, 7) fixture, whatever the seed:
    # its entry labelled 45 against its reference
    a, b = realize_latin_pair(7, 45, 42, cache=PairCache())
    reference_7 = [
        [5, 0, 6, 2, 4, 1, 3],
        [0, 2, 5, 3, 1, 4, 6],
        [6, 4, 3, 1, 5, 0, 2],
        [3, 5, 0, 4, 6, 2, 1],
        [4, 6, 1, 0, 2, 3, 5],
        [2, 1, 4, 6, 3, 5, 0],
        [1, 3, 2, 5, 0, 6, 4],
    ]
    assert a.cells.tolist() == reference_7[:5] + [
        [2, 1, 4, 5, 3, 6, 0],
        [1, 3, 2, 6, 0, 5, 4],
    ]
    assert b.cells.tolist() == reference_7


def test_every_sampler_shape_is_pinned_by_digest():
    # one digest over Sudoku squares at eight box types, four seeds each,
    # and latin squares of five orders: a change means the RNG draws moved
    boxes = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (3, 4), (4, 4)]
    squares = [sample_sudoku(h, w, seed) for h, w in boxes for seed in range(4)]
    squares += [random_latin_square(n, 0) for n in (1, 2, 5, 8, 13)]
    text = "\n".join(str(square.cells.tolist()) for square in squares)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1bcc60234604d0a70348b854b08691c9f4eabab1df997416a4af184fdeb3cf38")


def test_workload_sampler_shapes_are_pinned_by_digest():
    # the benchmark's six box types plus (5, 5), six seeds each, and latin
    # squares of orders 37 and 130: at 130 a covered item's count would
    # drift into the open range if the sentinel were written before the
    # peers' decrements
    boxes = [(3, 3), (4, 4), (3, 5), (2, 8), (3, 6), (4, 5), (5, 5)]
    squares = [sample_sudoku(h, w, seed) for h, w in boxes for seed in range(6)]
    squares += [random_latin_square(n, 0) for n in (37, 130)]
    text = "\n".join(str(square.cells.tolist()) for square in squares)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "407ce90b6e42cf586d226cbe73b885d2d10fefec9a5086939535650626510c3a")


@pytest.mark.parametrize("h, w", [(1, 255), (15, 17)])
def test_orders_above_the_byte_counts_are_refused_before_any_table(monkeypatch, h, w):
    def no_table(*args):
        raise AssertionError("peer table built")

    monkeypatch.setattr(markov, "_peer_table", no_table)
    with pytest.raises(ValueError, match=f"sampler order {h * w} exceeds 254"):
        sample_sudoku(h, w, 0)


@settings(max_examples=60, deadline=None)
@given(
    box=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(0, 3),
)
def test_sampler_returns_a_square_or_raises_within_its_budget(box, seed, budget):
    h, w = box
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markov, "_BUDGET", budget)
        try:
            square = sample_sudoku(h, w, seed)
        except SampleError:
            return
        assert validate_sudoku(square.cells, BoxType(h, w)).ok
        # attempt i's budget depends on i alone, so more budget only adds
        # attempts and finds the same square
        patch.setattr(markov, "_BUDGET", budget + 5)
        assert sample_sudoku(h, w, seed) == square


@pytest.mark.parametrize("seed", [95, 166])
def test_order_30_seeds_that_ran_out_of_fixed_restarts_are_sampled(seed):
    # at 50 fixed attempts of 2n^2 nodes these two of seeds 0-199 raised
    square = sample_sudoku(5, 6, seed)
    assert validate_sudoku(square.cells, BoxType(5, 6)).ok


@pytest.mark.slow
@pytest.mark.parametrize("h, w, seeds", [(5, 6, range(200)), (4, 9, range(3)), (5, 7, range(3))])
def test_the_default_budget_samples_every_measured_seed(h, w, seeds):
    for seed in seeds:
        assert validate_sudoku(sample_sudoku(h, w, seed).cells, BoxType(h, w)).ok

"""Checked-in seed squares and their intersection labels."""

from importlib import resources

import pytest

from sudoku_spectra.construct import latin_spectrum, sudoku_spectrum
from sudoku_spectra.core import BoxType, intersection_size, validate_sudoku
from sudoku_spectra.formats import ParseError
from sudoku_spectra.seeds import (
    DATABASE,
    SEED_TYPES,
    SeedDatabase,
    _parse_fixture,
    load_seed_set,
)

# which labels each fixture carries, beyond the reference's n^2
EXPECTED_LABELS = {
    (2, 2): set(range(5)) | {6, 8, 9, 12},
    (2, 3): set(range(31)) | {32},
    (3, 3): set(range(76)) | {77},
    (2, 4): {64 - 9, 64 - 6},
    (3, 4): {144 - 9, 144 - 6},
    (4, 4): {256 - 9, 256 - 6},
    # latin pairs at the prime orders without a holed square, and the
    # nine values the holed square misses at order 11
    (1, 2): {0},
    (1, 3): {0, 3},
    (1, 5): set(range(20)) | {21},
    (1, 7): set(range(44)) | {45},
    (1, 11): {5, 82, 98, 101, 102, 104, 110, 112, 115},
}


def test_every_fixture_loads_and_validates():
    for h, w in SEED_TYPES:
        seed_set = load_seed_set(h, w)
        assert seed_set.box_type == BoxType(h, w)
        assert validate_sudoku(seed_set.reference.cells, seed_set.box_type).ok
        for _, sq in seed_set.entries:
            assert validate_sudoku(sq.cells, seed_set.box_type).ok


def test_expected_label_sets():
    for (h, w), labels in EXPECTED_LABELS.items():
        seed_set = DATABASE.get(h, w)
        assert seed_set.labels() == labels | {(h * w) ** 2}, (h, w)


def test_small_types_witness_their_whole_spectrum():
    # at the three smallest box types the seeds cover every achievable value
    for h, w in [(2, 2), (2, 3), (3, 3)]:
        assert DATABASE.get(h, w).labels() == sudoku_spectrum(h, w)
    for w in (2, 3, 5, 7):
        assert DATABASE.get(1, w).labels() == latin_spectrum(w)


def test_labels_are_recomputed_on_load():
    text = resources.files("sudoku_spectra.data").joinpath("seeds_1x7.txt").read_text()
    assert _parse_fixture(text, BoxType(1, 7)).labels() == latin_spectrum(7)
    tampered = text.replace("\n45: ", "\n44: ")
    assert tampered != text
    with pytest.raises(ParseError) as exc:
        _parse_fixture(tampered, BoxType(1, 7))
    assert exc.value.kind == "label" and "labelled 44" in str(exc.value)
    with pytest.raises(ParseError, match="labelled 45"):
        _parse_fixture(text.replace("\n49: ", "\n45: "), BoxType(1, 7))


@pytest.mark.parametrize("text, message", [
    ("x: 01|10", "'x' for box type .* is not an integer"),
    ("1: 01|10\n2.5: 10|01", "'2.5' for box type .* is not an integer"),
    ("", "has no entries"),
    ("# a comment\n\n   # another\n", "has no entries"),
], ids=["letter-label", "fraction-label", "empty", "comments-only"])
def test_malformed_fixtures_raise_tagged_label_errors(text, message):
    with pytest.raises(ParseError, match=message) as exc:
        _parse_fixture(text, BoxType(1, 2))
    assert exc.value.kind == "label"


def test_verification_recomputes_every_label():
    # loading recomputes each label; the reference counts as label n^2
    for (h, w), labels in EXPECTED_LABELS.items():
        seed_set = load_seed_set(h, w)
        assert len(seed_set.entries) == len(labels), (h, w)
        for label, square in seed_set.entries:
            assert intersection_size(square, seed_set.reference) == label, (h, w)


def test_pair_for_returns_matching_pair():
    seed_set = DATABASE.get(2, 3)
    for t in sorted(seed_set.labels()):
        a, b = seed_set.pair_for(t)
        assert intersection_size(a, b) == t
    with pytest.raises(KeyError):
        seed_set.pair_for(31)  # impossible value, no seed


def test_database_rejects_unknown_types():
    db = SeedDatabase()
    with pytest.raises(KeyError):
        db.get(5, 5)
    assert db.types() == SEED_TYPES

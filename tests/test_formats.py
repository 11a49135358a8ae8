"""Serialization round-trips and parse errors."""

import json

import numpy as np
import pytest

from sudoku_spectra.core import BoxType, BoxViolationError, LatinViolationError
from sudoku_spectra.formats import (
    STYLES,
    ParseError,
    canonical_json,
    parse,
    parse_grid,
    parse_json,
    parse_single_line,
    serialize,
)
from sudoku_spectra.markov import sample_sudoku
from sudoku_spectra.spectrum import RealizationCertificate, realize_sudoku_pair


def test_round_trip_every_style():
    rng = np.random.default_rng(2024)
    for h, w in [(1, 1), (2, 2), (2, 3), (3, 3), (2, 5)]:
        sq = sample_sudoku(h, w, rng)
        for style in STYLES:
            text = serialize(sq, style)
            back = parse(text, BoxType(h, w), style)
            assert back == sq, (h, w, style)


def test_single_line_uses_letters_past_nine():
    sq = sample_sudoku(3, 4, np.random.default_rng(5))
    text = serialize(sq, "single_line")
    assert "a" in text or "b" in text
    assert parse_single_line(text, BoxType(3, 4)) == sq


def test_single_line_error_kinds():
    bt = BoxType(2, 2)
    with pytest.raises(ParseError) as e:
        parse_single_line("0123|1230|2301", bt)
    assert e.value.kind == "block_count"
    with pytest.raises(ParseError) as e:
        parse_single_line("0123|1230|2301|301", bt)
    assert e.value.kind == "block_length"
    with pytest.raises(ParseError) as e:
        parse_single_line("0123|1230|2301|3*12", bt)
    assert e.value.kind == "invalid_char"
    with pytest.raises(ParseError) as e:
        parse_single_line("0123|1230|2301|3019", bt)
    assert e.value.kind == "symbol_range"


def test_grid_error_kinds():
    bt = BoxType(2, 2)
    with pytest.raises(ParseError) as e:
        parse_grid("0 1 2 3\n2 3 0 1", bt)
    assert e.value.kind == "line_count"
    with pytest.raises(ParseError) as e:
        parse_grid("0 1 2 3\n2 3 0 1\n1 0 3 2\n3 2 1", bt)
    assert e.value.kind == "token_count"
    # ASCII decimal digits only, though int() reads each of these
    for bad in ["x", "1_0", "+1", "-0", "\u0660"]:
        with pytest.raises(ParseError) as e:
            parse_grid(f"0 1 2 3\n2 3 0 1\n1 0 3 2\n3 2 1 {bad}", bt)
        assert e.value.kind == "invalid_char"
    with pytest.raises(ParseError) as e:
        parse_grid("0 1 2 3\n2 3 0 1\n1 0 3 2\n3 2 1 7", bt)
    assert e.value.kind == "symbol_range"


def test_json_error_kinds():
    for text in ["{not json", '{"h": 2}', '{"h": 2, "w": 0, "rows": []}',
                 '{"h": 2, "w": 2, "rows": 3}',
                 # JSON integers only: no floats, strings or booleans
                 '{"h": 2.9, "w": "1", "rows": [[0, 1], [1, 0]]}',
                 '{"h": 2.0, "w": 1, "rows": [[0, 1], [1, 0]]}',
                 '{"h": 2, "w": "1", "rows": [[0, 1], [1, 0]]}',
                 '{"h": true, "w": 2, "rows": [[0, 1], [1, 0]]}',
                 # rows that are not an order h*w grid of symbols 0..h*w-1
                 '{"h": 2, "w": 2, "rows": []}',
                 '{"h": 2, "w": 2, "rows": [0, 1, 2, 3]}',
                 '{"h": 2, "w": 2, "rows": [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1]]}',
                 '{"h": 2, "w": 2, "rows": [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0.0]]}',
                 '{"h": 2, "w": 2, "rows": [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 4]]}',
                 '{"h": 2, "w": 2, "rows": [[0, 1], [1, 0]]}',
                 # a valid square once true and false are read as 1 and 0
                 '{"h": 2, "w": 2, "rows": [[false, true, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]}']:
        with pytest.raises(ParseError) as e:
            parse_json(text)
        assert e.value.kind == "json"
    with pytest.raises(ParseError, match='^field "rows": true or false is not a symbol$'):
        parse_json('{"h": 1, "w": 2, "rows": [[0, true], [1, 0]]}')


@pytest.mark.parametrize("text", ['{"h":2,"w":2,"rows":' + "[" * 100_000, b"\xff"],
                         ids=["nested-too-deep", "not-utf8"])
def test_json_that_does_not_decode_is_a_parse_error(text):
    with pytest.raises(ParseError) as e:
        parse_json(text)
    assert e.value.kind == "json"


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("[1]", "expected a JSON object"),
    ('{"h": true, "w": 2}', 'field "h" must be an integer'),
    ('{"h": 2, "w": 2.0}', 'field "w" must be an integer'),
], ids=["not-json", "array", "h-bool", "w-float"])
def test_squares_and_certificates_read_json_alike(text, message):
    # one guarded reader; only the kind tag tells the two apart
    for read, kind in [(parse_json, "json"), (RealizationCertificate.from_json, "certificate")]:
        with pytest.raises(ParseError) as e:
            read(text)
        assert (e.value.kind, str(e.value)) == (kind, message)


def test_json_mismatched_box_type():
    sq = sample_sudoku(2, 3, np.random.default_rng(0))
    text = serialize(sq, "json")
    with pytest.raises(ParseError) as e:
        parse(text, BoxType(3, 2), "json")
    assert e.value.kind == "json"


def test_validation_errors_are_not_parse_errors():
    # well-formed text that breaks the latin/box rules
    with pytest.raises(LatinViolationError):
        parse_single_line("0123|0123|0123|0123", BoxType(2, 2))
    with pytest.raises(BoxViolationError):
        # latin (cyclic) but the 2x2 boxes repeat symbols
        parse_single_line("0123|1230|2301|3012", BoxType(2, 2))


def test_grid_style_aligns_columns():
    sq = sample_sudoku(3, 4, np.random.default_rng(9))
    lines = serialize(sq, "grid").splitlines()
    assert len(lines) == 12
    assert len(set(map(len, lines))) == 1  # two-digit alignment


def test_json_is_canonical():
    sq = sample_sudoku(2, 2, np.random.default_rng(3))
    text = serialize(sq, "json")
    assert text == canonical_json(json.loads(text))
    assert " " not in text
    assert list(json.loads(text)) == ["h", "rows", "w"]


@pytest.mark.parametrize("h, w", [(2, 2), (3, 4), (3, 6)])
def test_json_style_matches_the_nested_list_form(h, w):
    sq = realize_sudoku_pair(h, w, (h * w) ** 2 - 4).a
    payload = {"h": h, "w": w, "rows": sq.cells.tolist()}
    assert serialize(sq, "json") == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert serialize(sq.transposed(), "json") == json.dumps(
        {"h": w, "w": h, "rows": sq.cells.T.tolist()}, sort_keys=True, separators=(",", ":"))


def test_unknown_style_rejected():
    sq = sample_sudoku(2, 2, np.random.default_rng(4))
    with pytest.raises(ValueError):
        serialize(sq, "yaml")
    with pytest.raises(ValueError):
        parse("01|10", BoxType(1, 2), "yaml")

"""Text formats for Sudoku squares.

Three interchangeable styles:

* ``single_line``: rows joined by ``|``, one character per symbol
  (0-9 then a-z, so orders up to 36), e.g. ``"01|10"``.
* ``grid``: one row per line, whitespace-separated ASCII decimal symbols.
* ``json``: canonical JSON object ``{"h": .., "rows": [[..]], "w": ..}``
  with sorted keys and no whitespace, safe to diff byte-for-byte.

Parsers validate and return SudokuSquare; structural problems raise
ParseError (a MalformedInputError with a ``kind`` tag) while latin/box
failures surface as the usual validation errors.  JSON squares and
certificates are read by one guarded reader, ``read_json_object``.
"""
from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .core import BoxType, MalformedInputError, SudokuSquare

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {ch: k for k, ch in enumerate(_DIGITS)}

STYLES = ("single_line", "grid", "json")


class ParseError(MalformedInputError):
    """Malformed serialized square; ``kind`` says which rule broke."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


def parse_single_line(text: str, box_type: BoxType) -> SudokuSquare:
    n = box_type.n
    blocks = text.strip().split("|")
    if len(blocks) != n:
        raise ParseError("block_count", f"expected {n} row blocks, got {len(blocks)}")
    rows = []
    for i, block in enumerate(blocks):
        if len(block) != n:
            raise ParseError("block_length", f"row {i} has {len(block)} symbols, expected {n}")
        row = []
        for ch in block:
            if ch not in _DIGIT_VALUE:
                raise ParseError("invalid_char", f"row {i}: {ch!r} is not a symbol character")
            v = _DIGIT_VALUE[ch]
            if v >= n:
                raise ParseError("symbol_range", f"row {i}: symbol {v} out of range 0..{n - 1}")
            row.append(v)
        rows.append(row)
    return SudokuSquare(rows, box_type)


def parse_grid(text: str, box_type: BoxType) -> SudokuSquare:
    n = box_type.n
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) != n:
        raise ParseError("line_count", f"expected {n} rows, got {len(lines)}")
    rows = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError("token_count", f"row {i} has {len(tokens)} entries, expected {n}")
        row = []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):  # int() also reads 1_0, +1, -0, ٠
                raise ParseError("invalid_char", f"row {i}: {tok!r} is not a decimal integer")
            v = int(tok)
            if not 0 <= v < n:
                raise ParseError("symbol_range", f"row {i}: symbol {v} out of range 0..{n - 1}")
            row.append(v)
        rows.append(row)
    return SudokuSquare(rows, box_type)


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "an array of rows"}


def read_json_object(text, kind: str, fields: dict[str, type]) -> dict:
    """The JSON object in ``text`` (str or UTF-8 bytes) whose ``fields`` each
    hold their JSON type: ``int`` (true and false are not integers), ``str``,
    or ``list``, a grid, which may not hold true or false.  Anything else
    raises ParseError(kind)."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ParseError(kind, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(kind, "expected a JSON object")
    for key, json_type in fields.items():
        value = obj.get(key)
        # bool is an int subclass, but JSON true/false is not a number
        if not isinstance(value, json_type) or isinstance(value, bool):
            raise ParseError(kind, f'field "{key}" must be {_JSON_TYPE_NAMES[json_type]}')
        # numpy would read true and false in a grid as 1 and 0
        if json_type is list and any(bool in map(type, r) for r in value if isinstance(r, list)):
            raise ParseError(kind, f'field "{key}": true or false is not a symbol')
    return obj


def parse_json(text: str) -> SudokuSquare:
    obj = read_json_object(text, "json", {"h": int, "w": int, "rows": list})
    try:
        return SudokuSquare(obj["rows"], BoxType(obj["h"], obj["w"]))
    except MalformedInputError as exc:  # h or w below 1, or not an order h*w grid of symbols
        raise ParseError("json", f"JSON square: {exc}") from None


def parse(text: str, box_type: BoxType, style: str) -> SudokuSquare:
    if style == "single_line":
        return parse_single_line(text, box_type)
    if style == "grid":
        return parse_grid(text, box_type)
    if style == "json":
        sq = parse_json(text)
        if sq.box_type != box_type:
            raise ParseError(
                "json",
                f"box type {sq.box_type.h}x{sq.box_type.w} in JSON, expected {box_type.h}x{box_type.w}",
            )
        return sq
    raise ValueError(f"unknown style {style!r}, expected one of {STYLES}")


def _check_style(style: str, n: int) -> None:
    """Raise ValueError unless ``style`` can print an order-n square."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}, expected one of {STYLES}")
    if style == "single_line" and n > len(_DIGITS):
        raise ValueError(f"single_line style supports orders up to {len(_DIGITS)}, got {n}")


def serialize(square: SudokuSquare, style: str = "single_line") -> str:
    n = square.order
    _check_style(style, n)
    if style == "single_line":
        return "|".join("".join(_DIGITS[v] for v in row) for row in square.cells.tolist())
    if style == "grid":
        width = len(str(n - 1))
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in square.cells.tolist()
        )
    return f'{{"h":{square.box_type.h},"rows":{grid_json(square.cells)},"w":{square.box_type.w}}}'


def canonical_json(obj) -> str:
    """Sorted-keys, no-whitespace JSON: the reference that ``grid_json``,
    certificate ``to_json`` text and cache journal lines are tested against."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=32)
def _grid_codec(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit table and the text template of an order-n grid's canonical
    JSON, one d + 4 byte row per cell, d the width of n - 1.  A template row
    holds two opening bytes ("[[" before the first cell, ",[" before each
    later row's first), d digit slots, and two closing bytes ("," between
    cells, "]" after a row's last, "]]" after the grid's).  Row v of the
    table holds the digits of v in those slots.  Unused bytes are NUL."""
    d = len(str(n - 1))
    digits = np.zeros((n, d + 4), dtype=np.uint8)
    digits[:, 2:2 + d] = np.array([str(v).encode() for v in range(n)], f"S{d}").view(
        np.uint8).reshape(n, d)
    template = np.zeros((n, n, d + 4), dtype=np.uint8)
    template[0, 0, :2] = tuple(b"[[")
    template[1:, 0, :2] = tuple(b",[")
    template[:, :, d + 2] = ord(",")
    template[:, -1, d + 2] = ord("]")
    template[-1, -1, d + 3] = ord("]")
    template = template.reshape(n * n, d + 4)
    digits.flags.writeable = template.flags.writeable = False
    return digits, template


def grid_json(cells: np.ndarray) -> str:
    """``canonical_json(cells.tolist())`` for an order-n grid of symbols
    0..n-1, written without building Python lists."""
    digits, template = _grid_codec(cells.shape[0])
    text = digits.take(cells.ravel(), axis=0)
    text |= template
    return text.tobytes().translate(None, b"\0").decode("ascii")


_NO_BRACKETS = str.maketrans("", "", "[]")


def grids_from_json(texts: list[str], n: int) -> np.ndarray | None:
    """The (k, n, n) stack of order-n grids of symbols 0..n-1 whose ``grid_json``
    are exactly the k ``texts``, parsed in one pass, or None for any other
    texts, valid JSON or not.  The stack owns its data."""
    try:
        values = np.fromstring(",".join(texts).translate(_NO_BRACKETS), dtype=np.int64, sep=",")
    except ValueError:  # text between the commas that is not an integer
        return None
    if values.size != len(texts) * n * n or values.min() < 0 or values.max() >= n:
        return None
    values.shape = (len(texts), n, n)  # in place, so no view of the parse
    return values if all(grid_json(g) == text for g, text in zip(values, texts)) else None

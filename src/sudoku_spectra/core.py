"""Core grid type: the Sudoku latin square, its validation, and the
intersection size of two squares.

Symbols are 0-based everywhere: an order-n square is filled with 0..n-1.
A Sudoku square of box type (h, w) is an order h*w latin square whose
h-row by w-column boxes each contain every symbol once.  A latin square
is the one of box type (1, n), whose boxes are its rows: one class,
``SudokuSquare``, holds both, and ``LatinSquare`` is its name at (1, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np


class MalformedInputError(ValueError):
    """Structurally bad input: not square, out-of-range symbols, mismatched orders."""


class ValidationError(ValueError):
    """A structurally fine grid that breaks a latin or box constraint."""

    def __init__(self, violation: "Violation"):
        self.violation = violation
        super().__init__(str(violation))


class LatinViolationError(ValidationError):
    pass


class BoxViolationError(ValidationError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str  # "row" | "column" | "box"
    where: tuple[int, ...]  # row index, column index, or box coordinates (p, q)
    symbol: int

    def __str__(self) -> str:
        return f"symbol {self.symbol} repeats in {self.kind} {self.where}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Violation | None = None

    def __bool__(self) -> bool:
        return self.ok


def as_grid(rows: Union[np.ndarray, Sequence[Sequence[int]]]) -> np.ndarray:
    """Coerce nested sequences to an (n, n) int array of symbols 0..n-1.

    Raises MalformedInputError for ragged/non-square input or out-of-range
    entries.  The result is a fresh read-only array.
    """
    try:
        raw = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"not a rectangular integer grid: {exc}") from None
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] == 0:
        raise MalformedInputError(f"expected a nonempty square grid, got shape {raw.shape}")
    if raw.dtype.kind not in "iu":  # signed or unsigned integers
        raise MalformedInputError(f"expected integer entries, got dtype {raw.dtype}")
    grid = raw.astype(np.int64, copy=True)
    n = grid.shape[0]
    if grid.min() < 0 or grid.max() >= n:
        bad = grid.min() if grid.min() < 0 else grid.max()
        raise MalformedInputError(f"symbol {bad} out of range 0..{n - 1}")
    grid.flags.writeable = False
    return grid


def _first_duplicate(line: np.ndarray) -> int | None:
    seen = set()
    for v in line.tolist():
        if v in seen:
            return v
        seen.add(v)
    return None


@dataclass(frozen=True)
class BoxType:
    """Box shape (h, w): boxes are h rows by w columns, order n = h*w."""

    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise MalformedInputError(f"box type must be positive, got {(self.h, self.w)}")

    @property
    def n(self) -> int:
        return self.h * self.w

    def transposed(self) -> "BoxType":
        return BoxType(self.w, self.h)

    def boxes(self) -> Iterable[tuple[int, int]]:
        return ((p, q) for p in range(self.w) for q in range(self.h))

    def cell_boxes(self) -> list[int]:
        """Box number p*h + q of each cell, row-major: the ``boxes`` order."""
        n = self.n
        return [(r // self.h) * self.h + c // self.w for r in range(n) for c in range(n)]


@lru_cache(maxsize=None)
def _latin_type(n: int) -> BoxType:
    """Box type (1, n), a latin square's, made once per order."""
    return BoxType(1, n)


def _box_lines(grid: np.ndarray, box_type: BoxType) -> np.ndarray:
    """The boxes of an order-n grid (of each grid of a stack) as rows of an
    (n, n) array, box (p, q) at row p*h + q, the order of ``BoxType.boxes``."""
    h, w = box_type.h, box_type.w
    return grid.reshape(*grid.shape[:-2], w, h, h, w).swapaxes(-3, -2).reshape(grid.shape)


@lru_cache(maxsize=64)
def _line_offsets(shape: tuple[int, ...], box_type: BoxType):
    """Each cell's line index times n, one layer per family of lines to check
    in a grid or stack of grids (rows, columns, then boxes): the offsets
    that make a cell's symbol its (line, symbol) key."""
    n, grids = shape[-1], math.prod(shape[:-2])
    lines = [*np.indices((n, n)), np.reshape(box_type.cell_boxes(), (n, n))]
    first = np.arange(0, len(lines) * grids * n, n).reshape(len(lines), grids, 1, 1)
    offsets = ((first + np.array(lines)[:, None]) * n).reshape(len(lines), *shape)
    offsets.flags.writeable = False
    return offsets


def _lines_are_permutations(grid: np.ndarray, box_type: BoxType) -> bool:
    """True iff every checked line (of every grid of a stack) holds each
    symbol 0..n-1 once: the cells' (line, symbol) keys mark every key."""
    offsets = _line_offsets(grid.shape, box_type)
    seen = np.zeros(offsets.size, dtype=bool)
    seen[grid + offsets] = True
    return seen.all()


def _first_violation(grid: np.ndarray, box_type: BoxType) -> Violation:
    """The first repeat in row, column, box order, in a stack's first bad grid.
    Runs only after the vectorized check failed, so reports match a scan."""
    for square in grid.reshape(-1, *grid.shape[-2:]):
        lines = [("row", (i,), line) for i, line in enumerate(square)]
        lines += [("column", (j,), line) for j, line in enumerate(square.T)]
        boxes = _box_lines(square, box_type)
        lines += [("box", pq, line) for pq, line in zip(box_type.boxes(), boxes)]
        for kind, where, line in lines:
            dup = _first_duplicate(line)
            if dup is not None:
                return Violation(kind, where, dup)
    raise AssertionError("vectorized check failed but no line repeats a symbol")


def _check_lines(grid: np.ndarray, box_type: BoxType) -> ValidationReport:
    """The line check behind both validators and both constructors, on a grid
    (or (k, n, n) stack) coerced by ``as_grid``, or a square's cells.  At box
    type (1, n) a box is a row, so a latin square's repeat is a row's."""
    if grid.shape[-1] != box_type.n:
        raise MalformedInputError(
            f"grid order {grid.shape[-1]} does not match box type {box_type.h}x{box_type.w}"
        )
    if _lines_are_permutations(grid, box_type):
        return ValidationReport(True)
    return ValidationReport(False, _first_violation(grid, box_type))


def _checked(grid: np.ndarray, box_type: BoxType) -> np.ndarray:
    """``grid`` if it satisfies ``box_type``; else the box or latin violation."""
    report = _check_lines(grid, box_type)
    if not report.ok:
        error = BoxViolationError if report.violation.kind == "box" else LatinViolationError
        raise error(report.violation)
    return grid


def validate_latin(rows: GridLike) -> ValidationReport:
    """Check the latin property; malformed input raises instead of reporting."""
    grid = _cells_of(rows)
    return _check_lines(grid, _latin_type(grid.shape[0]))


def validate_sudoku(rows: GridLike, box_type: BoxType) -> ValidationReport:
    """Check latin plus box constraints for the given box type."""
    return _check_lines(_cells_of(rows), box_type)


class SudokuSquare:
    """An immutable order-n square of box type (h, w), n = h*w: each row,
    column and box holds every symbol 0..n-1 once.  With no box type it is
    a latin square, of box type (1, n); ``LatinSquare`` names this class,
    and ``LatinSquare(square)`` is any square's cells as a latin square.
    Squares are equal when their box types and cells are.  Any grid is
    checked once, for all its lines in one pass."""

    __slots__ = ("cells", "box_type", "_hash")

    def __init__(self, square: GridLike, box_type: BoxType | None = None):
        grid = _cells_of(square)
        if box_type is None:
            box_type = _latin_type(grid.shape[0])
        object.__setattr__(self, "cells", _checked(grid, box_type))
        object.__setattr__(self, "box_type", box_type)

    @classmethod
    def _from_checked(cls, grid: np.ndarray, box_type: BoxType) -> "SudokuSquare":
        """Wrap a read-only int64 grid that has passed the check for ``box_type``
        (an ``as_grid`` array, or a view of a read-only stack or square's cells)."""
        square = object.__new__(cls)
        object.__setattr__(square, "cells", grid)
        object.__setattr__(square, "box_type", box_type)
        return square

    @classmethod
    def _all_checked(cls, grids, box_type: BoxType) -> list["SudokuSquare"]:
        """``[SudokuSquare(g, box_type) for g in grids]`` from one stacked check (an
        int64 (k, n, n) array that owns its data counts as coerced, and is made
        read-only with the squares' views of it); on any failure, built one by one."""
        try:
            stack = grids if isinstance(grids, np.ndarray) else np.stack([as_grid(g) for g in grids])
            if _check_lines(stack, box_type).ok:
                stack.flags.writeable = False
                return [cls._from_checked(grid, box_type) for grid in stack]
        except ValueError:  # a grid that does not coerce, or grids of two shapes
            pass
        return [cls(g, box_type) for g in grids]  # raises what SudokuSquare raises

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def order(self) -> int:
        return self.cells.shape[0]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row) for row in self.cells.tolist())

    def __getitem__(self, key):
        return self.cells[key]

    def transposed(self) -> "SudokuSquare":
        """The transpose, of the transposed box type.  Transposing keeps
        rows, columns and boxes whole, so nothing is checked again."""
        return SudokuSquare._from_checked(self.cells.T, self.box_type.transposed())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SudokuSquare):
            return NotImplemented
        return self.box_type == other.box_type and np.array_equal(self.cells, other.cells)

    def __hash__(self) -> int:
        """Computed on first use: the cells are read-only, so it never goes stale."""
        try:
            return self._hash
        except AttributeError:  # the slot is unset until the first call
            object.__setattr__(self, "_hash", hash((self.box_type, self.cells.tobytes())))
            return self._hash

    def __repr__(self) -> str:
        if self.order > 16:
            body = f"order {self.order}"
        else:
            body = "/".join("".join(format(v, "x") for v in row) for row in self.cells.tolist())
        h, w = self.box_type.h, self.box_type.w
        return f"LatinSquare({body})" if h == 1 else f"SudokuSquare({h}x{w}, LatinSquare({body}))"


LatinSquare = SudokuSquare  # a latin square is the square of box type (1, n)


GridLike = Union[SudokuSquare, np.ndarray, Sequence]


def _cells_of(x: GridLike) -> np.ndarray:
    if isinstance(x, SudokuSquare):
        return x.cells
    return as_grid(x)


def intersection_size(a: GridLike, b: GridLike) -> int:
    """The number of cells where two equal-order squares agree."""
    ca, cb = _cells_of(a), _cells_of(b)
    if ca.shape != cb.shape:
        raise MalformedInputError(f"order mismatch: {ca.shape[0]} vs {cb.shape[0]}")
    return int((ca == cb).sum())


@lru_cache(maxsize=32)
def cyclic_square(n: int) -> LatinSquare:
    """The addition table of Z_n: entry (i, j) = (i + j) mod n.  Memoized,
    as a LatinSquare is immutable and its cells are read-only."""
    i = np.arange(n)
    return LatinSquare((i[:, None] + i[None, :]) % n)

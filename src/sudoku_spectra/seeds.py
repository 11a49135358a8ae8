"""Checked-in seed squares witnessing hard-to-construct intersection values.

One fixture file per box type under ``data/``, one square per line in
single-line notation.  Entries are labelled with their intersection size
against a reference square, the last entry (it is the square compared
with itself, so its label is n^2).

The seeds are the realizer's fallback, used only where no construction
applies: every target at the small box types (2,2), (2,3), (3,3); the
three targets n^2-6, n^2-9, n^2-11 at box width 4, where
``construct.decompose_target`` returns None; and, stored as box type
(1, w) (each box one row), the latin pairs the holed-square split does
not reach: every value at orders 2, 3, 5 and 7, and nine values at
order 11.

Every label is recomputed when its file is loaded; a label that does not
match raises ParseError (kind "label").
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .core import BoxType, SudokuSquare, intersection_size
from .formats import ParseError, parse_single_line

SEED_TYPES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4),
              (1, 2), (1, 3), (1, 5), (1, 7), (1, 11))


@dataclass(frozen=True)
class SeedSet:
    box_type: BoxType
    entries: tuple[tuple[int, SudokuSquare], ...]  # (label, square), reference excluded
    reference: SudokuSquare

    def labels(self) -> frozenset[int]:
        return frozenset(label for label, _ in self.entries) | {self.box_type.n ** 2}

    def pair_for(self, t: int) -> tuple[SudokuSquare, SudokuSquare]:
        """A pair of squares of this type meeting in exactly t cells."""
        if t == self.box_type.n ** 2:
            return self.reference, self.reference
        for label, square in self.entries:
            if label == t:
                return square, self.reference
        raise KeyError(f"no seed with label {t} for box type {self.box_type}")


def _parse_fixture(text: str, box_type: BoxType) -> SeedSet:
    raw = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            label, _, rest = line.partition(":")
            try:
                label = int(label)
            except ValueError:
                raise ParseError("label", f"seed label {label!r} for box type {box_type} "
                                 "is not an integer") from None
            raw.append((label, parse_single_line(rest, box_type)))
    if not raw:
        raise ParseError("label", f"seed fixture for box type {box_type} has no entries")
    reference = raw[-1][1]
    for label, square in raw:  # the reference meets itself in n^2 cells
        actual = intersection_size(square, reference)
        if actual != label:
            raise ParseError(
                "label", f"seed labelled {label} for box type {box_type} meets its reference "
                f"in {actual} cells"
            )
    return SeedSet(box_type, tuple(raw[:-1]), reference)


def load_seed_set(h: int, w: int) -> SeedSet:
    name = f"seeds_{h}x{w}.txt"
    text = resources.files("sudoku_spectra.data").joinpath(name).read_text()
    return _parse_fixture(text, BoxType(h, w))


class SeedDatabase:
    """All checked-in seed sets, loaded lazily and cached."""

    def __init__(self):
        self._sets: dict[tuple[int, int], SeedSet] = {}

    def get(self, h: int, w: int) -> SeedSet:
        if (h, w) not in self._sets:
            if (h, w) not in SEED_TYPES:
                raise KeyError(f"no seed fixture for box type {(h, w)}")
            self._sets[(h, w)] = load_seed_set(h, w)
        return self._sets[(h, w)]

    def types(self) -> tuple[tuple[int, int], ...]:
        return SEED_TYPES


DATABASE = SeedDatabase()


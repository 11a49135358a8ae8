"""Pentadoku: 5x5 latin squares with five pentomino cages.

A tiling carves the 5x5 grid into five pairwise distinct free pentominoes
(distinct as shapes up to rotation and reflection).  Tilings are counted
up to the dihedral symmetry group of the grid (rotations and
reflections); each class is represented by a canonical form, the
lexicographically least cage grid over the 8 transforms with cage ids
renumbered in first-appearance order.  A Pentadoku solution is a latin
square in which every cage also contains all five symbols.

The census classifies all tilings by their intersection spectrum (sizes
of |A ∩ B| over solution pairs): ``unsolvable`` (no solution), ``full``
(the whole order-5 spectrum {0..19, 21, 25}), ``partial`` (a proper
nonempty subset), and ``rigid`` (a unique solution up to symbol
relabelling, giving spectrum {0, 5, 10, 15, 25}).

Solutions are enumerated up to relabelling (first row 0 1 2 3 4); the
relabelling group acts freely, so every count of raw solutions is 120
times the canonical count, and spectra factor through one canonical side.
Both facts are verified in the test suite against plain enumeration.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .construct import latin_spectrum
from .core import LatinSquare
from .enumeration import _fill_squares, _sweep

SIZE = 5

Cells = tuple[tuple[int, int], ...]

# the 12 free pentominoes, one orientation each
PENTOMINO_BASE: dict[str, Cells] = {
    "F": ((0, 1), (0, 2), (1, 0), (1, 1), (2, 1)),
    "I": ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)),
    "L": ((0, 0), (1, 0), (2, 0), (3, 0), (3, 1)),
    "N": ((0, 1), (1, 1), (2, 0), (2, 1), (3, 0)),
    "P": ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)),
    "T": ((0, 0), (0, 1), (0, 2), (1, 1), (2, 1)),
    "U": ((0, 0), (0, 2), (1, 0), (1, 1), (1, 2)),
    "V": ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)),
    "W": ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)),
    "X": ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)),
    "Y": ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1)),
    "Z": ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2)),
}


def normalize(cells) -> Cells:
    pts = list(cells)
    r0 = min(r for r, _ in pts)
    c0 = min(c for _, c in pts)
    return tuple(sorted((r - r0, c - c0) for r, c in pts))


def orientations(cells: Cells) -> tuple[Cells, ...]:
    """All distinct placements of a shape under rotation and reflection."""
    seen = []
    current = cells
    for _ in range(2):
        for _ in range(4):
            current = normalize((c, -r) for r, c in current)  # rotate 90
            if current not in seen:
                seen.append(current)
        current = normalize((r, -c) for r, c in current)  # reflect
    return tuple(seen)


PENTOMINO_ORIENTATIONS = {name: orientations(cells) for name, cells in PENTOMINO_BASE.items()}
_SHAPE_NAME = {
    orient: name for name, orients in PENTOMINO_ORIENTATIONS.items() for orient in orients
}


def shape_name(cells) -> str:
    """Which free pentomino a 5-cell set is."""
    key = normalize(cells)
    try:
        return _SHAPE_NAME[key]
    except KeyError:
        raise ValueError(f"{len(key)} cells do not form a pentomino") from None


Grid = tuple[tuple[int, ...], ...]


@cache
def _symmetries() -> np.ndarray:
    """The 8 grid symmetries as an (8, 25) table of flat cell indices: the
    transformed grid reads ``flat[p]`` for ``p`` in a row."""
    turns = [np.rot90(np.arange(SIZE * SIZE).reshape(SIZE, SIZE), k) for k in range(4)]
    return np.array([t.ravel() for g in turns for t in (g, g[:, ::-1])])


def _least_keys(flat: np.ndarray) -> np.ndarray:
    """Each row's key, from an (m, 25) uint8 array of cage ids 0..4: its least symmetric image,
    ids renumbered in first-appearance order, as 25 base-5 digits (numeric = string order)."""
    images = flat[:, _symmetries()]
    cells = np.arange(SIZE * SIZE, dtype=np.uint8)
    # each id's first cell in each image (25 when it is absent), ranked: its new id
    first = np.where(images[..., None, :] == cells[:SIZE, None], cells, SIZE * SIZE).min(axis=-1)
    rank = first.argsort(axis=-1).argsort(axis=-1).reshape(-1)
    digits = rank.take(images + SIZE * np.arange(len(rank) // SIZE).reshape(-1, 8, 1))
    return (digits @ SIZE ** np.arange(SIZE * SIZE - 1, -1, -1, dtype=np.int64)).min(axis=1)


def canonical_cage_key(grid) -> str:
    """Lexicographically least cage string over the 8 grid symmetries,
    cage ids (any five integers) renumbered in first-appearance order."""
    ids, inverse = np.unique(grid, return_inverse=True)
    if np.shape(grid) != (SIZE, SIZE) or len(ids) > SIZE:
        raise ValueError(f"cage grid must be 5x5 with at most 5 distinct ids, got {np.shape(grid)}")
    key = _least_keys(inverse.astype(np.uint8).reshape(1, -1))[0]
    return np.base_repr(key, SIZE).zfill(SIZE * SIZE)


@dataclass(frozen=True)
class Tiling:
    """A cage partition of the 5x5 grid into five distinct pentominoes.

    ``grid[r][c]`` is the cage id (0..4, first-appearance order) and
    ``shapes[i]`` the free pentomino type of cage i, read from the grid.
    """

    grid: Grid
    shapes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.shape != (SIZE, SIZE):
            raise ValueError(f"cage grid must be {SIZE}x{SIZE}")
        cages: dict[int, set[tuple[int, int]]] = {i: set() for i in range(SIZE)}
        for pos, v in enumerate(g.ravel().tolist()):
            if v in cages:
                cages[v].add(divmod(pos, SIZE))
        if sum(len(c) for c in cages.values()) != SIZE * SIZE:
            raise ValueError("cage ids must be 0..4 covering the grid")
        names = []
        for i, cells in cages.items():
            if len(cells) != SIZE:
                raise ValueError(f"cage {i} has {len(cells)} cells, expected {SIZE}")
            names.append(shape_name(cells))
        if len(set(names)) != SIZE:
            raise ValueError("cages must be pairwise distinct pentomino types")
        object.__setattr__(self, "shapes", tuple(names))

    @classmethod
    def from_grid(cls, grid) -> "Tiling":
        return cls(tuple(tuple(int(v) for v in row) for row in np.asarray(grid).tolist()))

    @classmethod
    def from_string(cls, text: str) -> "Tiling":
        rows = text.strip().split("|")
        return cls.from_grid([[int(ch) for ch in row] for row in rows])

    def key(self) -> str:
        return "".join(str(v) for row in self.grid for v in row)


@cache
def _placements() -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]:
    """Every in-grid placement of every pentomino orientation, as
    ``(shape bit, cell mask, flat cells)``, bucketed by its least cell."""
    by_cell: list[list] = [[] for _ in range(SIZE * SIZE)]
    for bit, orients in enumerate(PENTOMINO_ORIENTATIONS.values()):
        for cells in orients:
            for dr in range(SIZE - max(r for r, _ in cells)):
                for dc in range(SIZE - max(c for _, c in cells)):
                    flat = tuple((r + dr) * SIZE + c + dc for r, c in cells)
                    mask = sum(1 << i for i in flat)
                    by_cell[min(flat)].append((1 << bit, mask, flat))
    return tuple(tuple(bucket) for bucket in by_cell)


@cache
def _placement_table() -> np.ndarray:
    """``_placements()`` as a (25, widest bucket) int64 table, each shape bit above its cell
    mask, padded with -1, which meets the sign bit that every partial tiling holds."""
    rows = [[bit << SIZE * SIZE | mask for bit, mask, _ in bucket] for bucket in _placements()]
    return np.array([row + [-1] * (max(map(len, rows)) - len(row)) for row in rows], dtype=np.int64)


def enumerate_tilings() -> tuple[Tiling, ...]:
    """All tilings of the grid by five distinct free pentominoes, one
    canonical representative per symmetry class, in sorted key order.

    An exact cover over bitmasks (Knuth, TAOCP Vol. 4B, 7.2.2.1), breadth
    first: at level i every partial tiling takes, as cage i, each placement
    whose least cell is its lowest uncovered cell, so each of the 856
    tilings is reached once.  All their 8 x 856 images are keyed at once.
    """
    table = _placement_table()
    taken = np.full(1, -1 << 63, dtype=np.int64)  # covered cells, used shapes above them
    levels = []
    for _ in range(SIZE):
        place = table[np.frexp((taken + 1) & ~taken)[1] - 1]  # lowest uncovered cell, bit < 2**25
        hit = np.flatnonzero((place & taken[:, None]) == 0)
        parent, place = hit // table.shape[1], place.reshape(-1).take(hit)
        taken = taken.take(parent) | place
        levels.append((parent, place))
    grids, leaf = np.zeros((len(taken), SIZE * SIZE), dtype=np.uint8), np.arange(len(taken))
    for cage, (parent, place) in reversed(list(enumerate(levels))):
        grids[place.take(leaf)[:, None] >> np.arange(SIZE * SIZE) & 1 == 1] = cage
        leaf = parent.take(leaf)
    keys = np.unique(_least_keys(grids))[:, None]
    grids = keys // SIZE ** np.arange(SIZE * SIZE - 1, -1, -1, dtype=np.int64) % SIZE
    return tuple(Tiling.from_grid(grid.reshape(SIZE, SIZE)) for grid in grids)


def _cage_solutions(tiling: Tiling, up_to_relabelling: bool = True) -> np.ndarray:
    """``solve_cage_latin``'s squares as the rows of an (N, 25) uint8 array."""
    return _fill_squares(SIZE, [sum(tiling.grid, ())], up_to_relabelling)[0]


def solve_cage_latin(tiling: Tiling, up_to_relabelling: bool = True) -> tuple[LatinSquare, ...]:
    """All latin squares whose cages each hold all five symbols.

    With ``up_to_relabelling`` the first row is pinned to 0 1 2 3 4,
    giving exactly one solution per relabelling class (the symbol group
    acts freely); multiply counts by 120 for raw solutions.
    """
    solutions = _cage_solutions(tiling, up_to_relabelling)
    return tuple(LatinSquare(flat.reshape(SIZE, SIZE)) for flat in solutions)


def tiling_spectrum(tiling: Tiling, solutions: np.ndarray | None = None) -> frozenset[int]:
    """Intersection sizes over all ordered pairs of raw solutions, from the
    canonical solutions as an (N, 25) uint8 array (solved when not given).

    One side ranges over canonical solutions only: relabelling both
    squares together is intersection-preserving, so every pair is
    equivalent to one with a canonical left square.
    """
    if solutions is None:
        solutions = _cage_solutions(tiling)
    return frozenset(_sweep(solutions, solutions, SIZE))


FULL_SPECTRUM = latin_spectrum(SIZE)
RIGID_SPECTRUM = frozenset({0, 5, 10, 15, 25})

CATEGORIES = ("unsolvable", "full", "partial", "rigid")


@dataclass(frozen=True)
class TilingClass:
    tiling: Tiling
    canonical_solutions: int
    spectrum: frozenset[int]
    category: str

    @property
    def raw_solutions(self) -> int:
        return 120 * self.canonical_solutions

    @property
    def missing(self) -> frozenset[int]:
        return FULL_SPECTRUM - self.spectrum


def classify_tiling(tiling: Tiling, solutions: np.ndarray | None = None) -> TilingClass:
    if solutions is None:
        solutions = _cage_solutions(tiling)
    if not len(solutions):
        return TilingClass(tiling, 0, frozenset(), "unsolvable")
    spectrum = tiling_spectrum(tiling, solutions)
    if len(solutions) == 1:
        category = "rigid"
    elif spectrum == FULL_SPECTRUM:
        category = "full"
    else:
        category = "partial"
    return TilingClass(tiling, len(solutions), spectrum, category)


@dataclass(frozen=True)
class CensusReport:
    classes: tuple[TilingClass, ...]

    def count(self, category: str) -> int:
        return sum(1 for c in self.classes if c.category == category)

    def summary(self) -> tuple[int, int, int, int]:
        return tuple(self.count(cat) for cat in CATEGORIES)

    def by_category(self, category: str) -> tuple[TilingClass, ...]:
        return tuple(c for c in self.classes if c.category == category)


def classify_all() -> CensusReport:
    """Classify every tiling, all solved in one fill, a family each."""
    tilings = enumerate_tilings()
    solutions, family = _fill_squares(SIZE, [sum(t.grid, ()) for t in tilings], True)
    parts = np.split(solutions, np.searchsorted(family, np.arange(1, len(tilings))))
    return CensusReport(tuple(classify_tiling(t, s) for t, s in zip(tilings, parts)))


CENSUS_CONVENTIONS = {
    "grid": "5x5, cage ids 0..4 in first-appearance row-major order",
    "tiling_symmetry": "tilings counted up to grid rotations and reflections (8 transforms)",
    "distinctness": "the five cages are pairwise distinct free pentominoes",
    "solutions": "latin squares over symbols 0..4 with all symbols in every cage",
    "canonical_solution": "first row reads 0 1 2 3 4; raw count = 120 x canonical",
    "spectrum": "intersection sizes over ordered pairs of raw solutions",
}
CENSUS_FIELDS = ("cage_grid", "shapes", "canonical_solutions", "raw_solutions", "category",
                 "spectrum", "missing")


def write_census(report: CensusReport, out, fmt: str = "csv") -> None:
    """Write one row of ``CENSUS_FIELDS`` per tiling to a writable text file object."""
    rows = [
        {
            "cage_grid": "|".join("".join(str(v) for v in row) for row in cls.tiling.grid),
            "shapes": "".join(cls.tiling.shapes),
            "canonical_solutions": cls.canonical_solutions,
            "raw_solutions": cls.raw_solutions,
            "category": cls.category,
            "spectrum": " ".join(str(v) for v in sorted(cls.spectrum)),
            "missing": " ".join(str(v) for v in sorted(cls.missing)) if cls.category == "partial" else "",
        }
        for cls in report.classes
    ]
    if fmt == "json":
        json.dump({"conventions": CENSUS_CONVENTIONS, "tilings": rows}, out, indent=1)
        out.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown census format {fmt!r}")
    for key, value in CENSUS_CONVENTIONS.items():
        out.write(f"# {key}: {value}\n")
    writer = csv.DictWriter(out, fieldnames=CENSUS_FIELDS)
    writer.writeheader()
    writer.writerows(rows)


def census_text(report: CensusReport, fmt: str = "csv") -> str:
    buf = io.StringIO()
    write_census(report, buf, fmt)
    return buf.getvalue()


# the worked rigid example: cage grid and its unique canonical solution
RIGID_TILING = Tiling.from_string("00111|20001|22331|22433|44443")
RIGID_SOLUTION = LatinSquare(
    [
        [0, 1, 2, 3, 4],
        [1, 3, 4, 2, 0],
        [3, 2, 0, 4, 1],
        [4, 0, 3, 1, 2],
        [2, 4, 1, 0, 3],
    ]
)

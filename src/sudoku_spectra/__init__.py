"""Intersection spectra of latin squares and Sudoku latin squares.

Construct pairs of squares at any achievable intersection size, verify
and serialize squares, enumerate small cases exhaustively, sample squares
at random, and census the 5x5 pentomino-cage variant.
"""

__version__ = "0.1.0"

from .construct import (
    decompose_target,
    forbidden_values,
    kronecker,
    latin_spectrum,
    sudoku_reorder,
    sudoku_spectrum,
    triangle_product,
    upsilon,
)
from .core import (
    BoxType,
    BoxViolationError,
    LatinSquare,
    LatinViolationError,
    MalformedInputError,
    SudokuSquare,
    ValidationError,
    ValidationReport,
    cyclic_square,
    intersection_size,
    validate_latin,
    validate_sudoku,
)
from .enumeration import (
    SpectrumReport,
    brute_force_latin_spectrum,
    brute_force_spectrum,
    enumerate_squares,
)
from .formats import ParseError, parse, parse_grid, parse_json, parse_single_line, serialize
from .markov import SampleError, random_latin_square, sample_sudoku
from .pentadoku import (
    CATEGORIES,
    RIGID_SOLUTION,
    RIGID_TILING,
    FULL_SPECTRUM,
    RIGID_SPECTRUM,
    CensusReport,
    Tiling,
    TilingClass,
    canonical_cage_key,
    census_text,
    classify_all,
    classify_tiling,
    enumerate_tilings,
    solve_cage_latin,
    tiling_spectrum,
    write_census,
)
from .seeds import DATABASE, SeedDatabase, load_seed_set
from .spectrum import (
    CertificateError,
    PairCache,
    RealizationCertificate,
    SpectrumError,
    realize_latin_pair,
    realize_sudoku_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]

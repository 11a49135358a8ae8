"""The package's public names, listed in full.

``__all__`` is every public name ``__init__`` binds, so adding or removing
a public name shows up here as an edit to the list.
"""

import sudoku_spectra

PUBLIC_NAMES = [
    "BoxType", "BoxViolationError", "CATEGORIES", "CensusReport", "CertificateError",
    "DATABASE", "FULL_SPECTRUM", "LatinSquare", "LatinViolationError",
    "MalformedInputError", "PairCache", "ParseError", "RIGID_SOLUTION", "RIGID_SPECTRUM",
    "RIGID_TILING", "RealizationCertificate", "SampleError", "SeedDatabase",
    "SpectrumError", "SpectrumReport", "SudokuSquare", "Tiling", "TilingClass",
    "ValidationError", "ValidationReport", "brute_force_latin_spectrum",
    "brute_force_spectrum", "canonical_cage_key", "census_text", "classify_all",
    "classify_tiling", "construct", "core", "cyclic_square", "decompose_target",
    "enumerate_squares", "enumerate_tilings", "enumeration", "forbidden_values", "formats",
    "intersection_size", "kronecker", "latin_spectrum", "load_seed_set", "markov", "parse",
    "parse_grid", "parse_json", "parse_single_line", "pentadoku", "random_latin_square",
    "realize_latin_pair", "realize_sudoku_pair", "sample_sudoku", "seeds", "serialize",
    "solve_cage_latin", "spectrum", "sudoku_reorder", "sudoku_spectrum", "tiling_spectrum",
    "triangle_product", "upsilon", "validate_latin", "validate_sudoku", "write_census",
]


def test_public_names_are_pinned():
    assert sorted(sudoku_spectra.__all__) == PUBLIC_NAMES

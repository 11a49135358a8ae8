"""The package's public names and options, listed in full.

``__all__`` is every public name ``__init__`` binds, so adding or removing
a public name, or a defaulted parameter of a public callable, shows up
here as an edit to a list.
"""

import inspect

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


# each distinct public callable's parameters that have a default: every
# option a caller can leave out, so adding or removing one is an edit here
DEFAULTED_PARAMETERS = {
    "LatinSquare": ["box_type"],  # LatinSquare is SudokuSquare
    "PairCache": ["path"],
    "ValidationReport": ["violation"],
    "census_text": ["fmt"],
    "classify_tiling": ["solutions"],
    "enumerate_squares": ["first_row_fixed"],
    "random_latin_square": ["rng"],
    "realize_latin_pair": ["rng", "cache", "seed_db"],
    "realize_sudoku_pair": ["rng", "cache", "seed_db"],
    "sample_sudoku": ["rng"],
    "serialize": ["style"],
    "solve_cage_latin": ["up_to_relabelling"],
    "tiling_spectrum": ["solutions"],
    "write_census": ["fmt"],
}


def defaulted_parameters() -> dict[str, list[str]]:
    """Public callable (a class through its ``__init__``), by its first name
    in ``__all__``, to its defaulted parameter names; modules are skipped."""
    found, seen = {}, set()
    for name in sorted(sudoku_spectra.__all__):
        obj = getattr(sudoku_spectra, name)
        if inspect.ismodule(obj) or not callable(obj) or id(obj) in seen:
            continue
        seen.add(id(obj))
        params = inspect.signature(obj.__init__ if inspect.isclass(obj) else obj).parameters
        defaulted = [p.name for p in params.values() if p.default is not inspect.Parameter.empty]
        if defaulted:
            found[name] = defaulted
    return found


def test_public_options_are_pinned():
    found = defaulted_parameters()
    assert found == DEFAULTED_PARAMETERS
    assert sum(map(len, found.values())) == 18

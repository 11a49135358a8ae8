"""Square types, validation, intersection sizes."""

import numpy as np
import pytest

from sudoku_spectra.core import (
    BoxType,
    BoxViolationError,
    LatinSquare,
    LatinViolationError,
    MalformedInputError,
    SudokuSquare,
    ValidationError,
    as_grid,
    cyclic_square,
    intersection_size,
    validate_latin,
    validate_sudoku,
)
from sudoku_spectra.formats import parse_single_line
from sudoku_spectra.markov import random_latin_square, sample_sudoku
from sudoku_spectra.seeds import DATABASE
from sudoku_spectra.spectrum import PairCache, realize_latin_pair


def test_as_grid_accepts_lists_and_arrays():
    g = as_grid([[0, 1], [1, 0]])
    assert g.shape == (2, 2)
    assert g.dtype == np.int64
    assert not g.flags.writeable
    same = as_grid(g)
    assert np.array_equal(same, g)


def test_as_grid_rejects_bad_shapes_and_symbols():
    with pytest.raises(MalformedInputError):
        as_grid([[0, 1], [1]])  # ragged
    with pytest.raises(MalformedInputError):
        as_grid([[0, 1, 2], [1, 2, 0]])  # not square
    with pytest.raises(MalformedInputError):
        as_grid([[0, 5], [5, 0]])  # symbol out of range
    with pytest.raises(MalformedInputError):
        as_grid([[0.5, 1], [1, 0]])  # non-integer
    with pytest.raises(MalformedInputError):
        as_grid([])


def test_validate_latin_reports_row_and_column_repeats():
    ok = validate_latin([[0, 1], [1, 0]])
    assert ok.ok and ok.violation is None and bool(ok) is True

    bad_row = validate_latin([[0, 0], [1, 1]])
    assert not bad_row.ok
    assert bad_row.violation.kind == "row"

    bad_col = validate_latin([[0, 1], [0, 1]])
    assert not bad_col.ok and bool(bad_col) is False
    assert bad_col.violation.kind == "column"


def test_validate_sudoku_reports_box_repeats():
    bt = BoxType(2, 2)
    rows = [
        [0, 1, 2, 3],
        [2, 3, 0, 1],
        [1, 0, 3, 2],
        [3, 2, 1, 0],
    ]
    assert validate_sudoku(rows, bt).ok
    # swap two rows from different bands: still latin, box (0,0) now repeats
    swapped = [rows[0], rows[2], rows[1], rows[3]]
    rep = validate_sudoku(swapped, bt)
    assert not rep.ok
    assert rep.violation.kind == "box"


def test_latin_square_constructor_enforces_validity():
    with pytest.raises(LatinViolationError):
        LatinSquare([[0, 0], [1, 1]])
    sq = LatinSquare([[0, 1], [1, 0]])
    assert sq.order == 2
    assert sq.rows() == ((0, 1), (1, 0))
    assert not sq.cells.flags.writeable
    with pytest.raises(AttributeError):
        sq.cells = None


def test_sudoku_square_constructor_enforces_boxes():
    bt = BoxType(2, 2)
    rows = [
        [0, 1, 2, 3],
        [2, 3, 0, 1],
        [1, 0, 3, 2],
        [3, 2, 1, 0],
    ]
    s = SudokuSquare(rows, bt)
    assert s.order == 4
    with pytest.raises(BoxViolationError):
        SudokuSquare([rows[0], rows[2], rows[1], rows[3]], bt)
    # a square is checked again at any box type but its own and (1, n)
    with pytest.raises(BoxViolationError):
        SudokuSquare(LatinSquare([rows[0], rows[2], rows[1], rows[3]]), bt)
    with pytest.raises(MalformedInputError):
        SudokuSquare(s, BoxType(1, 2))
    # latin failure beats box failure
    with pytest.raises(LatinViolationError):
        SudokuSquare([[0] * 4] * 4, bt)


def test_box_type_geometry():
    bt = BoxType(2, 3)
    assert bt.n == 6
    assert bt.transposed() == BoxType(3, 2)
    boxes = list(bt.boxes())
    assert len(boxes) == 6
    with pytest.raises(ValueError):
        BoxType(0, 3)


def test_equality_and_hash_follow_cells():
    a = LatinSquare(cyclic_square(4).cells)
    b = cyclic_square(4)
    assert a == b
    assert hash(a) == hash(b)
    c = LatinSquare(np.array([1, 0, 2, 3])[b.cells])
    assert a != c
    assert len({a, b, c}) == 2
    # equality needs a square on both sides: the same rows are not a square
    for other in (b.rows(), [list(row) for row in b.rows()], None):
        assert (b == other) is False and (b != other) is True


def test_a_square_indexes_its_cells():
    s = SudokuSquare([[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]], BoxType(2, 2))
    assert s[1, 2] == 0 and s[3][0] == 3
    assert s[1].tolist() == [2, 3, 0, 1]
    assert s[:, 1].tolist() == [1, 3, 0, 2]


def test_sudoku_equality_includes_box_type():
    # 1xn and nx1 boxes are rows/columns, satisfied by every latin square
    s = SudokuSquare(cyclic_square(4), BoxType(1, 4))
    t = SudokuSquare(s.cells, BoxType(4, 1))
    assert s != t
    assert LatinSquare(s) == LatinSquare(t) == s
    assert len({s, t}) == 2


def test_a_latin_square_is_the_square_of_box_type_1_n():
    rows = [[3, 4, 5, 0, 2, 1], [0, 2, 1, 3, 5, 4], [5, 1, 0, 2, 4, 3],
            [2, 3, 4, 5, 1, 0], [4, 5, 3, 1, 0, 2], [1, 0, 2, 4, 3, 5]]  # also box type (2, 3)
    latin, row_boxes = LatinSquare(rows), SudokuSquare(rows, BoxType(1, 6))
    assert LatinSquare is SudokuSquare and type(latin) is SudokuSquare
    assert latin.box_type == BoxType(1, 6) and latin.box_type is SudokuSquare(rows).box_type
    assert latin == row_boxes and hash(latin) == hash(row_boxes)
    others = [SudokuSquare(rows, BoxType(6, 1)), SudokuSquare(rows, BoxType(2, 3))]
    # any square's latin view is its cells at box type (1, n)
    assert all(other != latin and LatinSquare(other) == latin for other in others)
    assert len({latin, row_boxes, *others}) == 3
    body = "345021/021354/510243/234510/453102/102435"
    assert repr(latin) == repr(row_boxes) == f"LatinSquare({body})"
    assert repr(others[1]) == f"SudokuSquare(2x3, LatinSquare({body}))"
    assert repr(SudokuSquare(cyclic_square(17), BoxType(1, 17))) == "LatinSquare(order 17)"
    assert repr(SudokuSquare(cyclic_square(17), BoxType(17, 1))) == (
        "SudokuSquare(17x1, LatinSquare(order 17))")


def test_a_square_is_checked_as_latin_by_its_cells():
    square = sample_sudoku(2, 3, 0)
    assert validate_latin(square).ok and validate_latin(square.transposed()).ok
    view = LatinSquare(square)
    assert view == LatinSquare(square.cells) and view.box_type == BoxType(1, 6)
    assert view.cells is square.cells and view != square


def _from_realize_latin_pair(w, s):
    pair = realize_latin_pair(w, s, cache=PairCache())
    assert intersection_size(*pair) == s
    return pair


_ROWS_5 = [[(i + 2 * j) % 5 for j in range(5)] for i in range(5)]
LATIN_SOURCES = {
    "LatinSquare": lambda: LatinSquare(_ROWS_5),
    "SudokuSquare-1xn": lambda: SudokuSquare(_ROWS_5, BoxType(1, 5)),
    "parse_single_line": lambda: parse_single_line("01234|12340|23401|34012|40123", BoxType(1, 5)),
    "seed-reference": lambda: DATABASE.get(1, 7).reference,
    "sample_sudoku": lambda: sample_sudoku(1, 5, 0),
    "random_latin_square": lambda: random_latin_square(5, 0),
    "pair-seed": lambda: _from_realize_latin_pair(7, 45),
    "pair-composite": lambda: _from_realize_latin_pair(8, 30),
    "pair-holed-prime": lambda: _from_realize_latin_pair(13, 40),
    "pair-cyclic": lambda: _from_realize_latin_pair(6, 36),
}


@pytest.mark.parametrize("source", LATIN_SOURCES)
def test_every_latin_square_is_one_class(source):
    made = LATIN_SOURCES[source]()
    for x in made if isinstance(made, tuple) else (made,):
        n = x.order
        assert type(x) is SudokuSquare and x.box_type == BoxType(1, n)
        assert repr(x).startswith("LatinSquare(") and x == LatinSquare(x.cells)


def test_intersection_and_size():
    a = cyclic_square(5)
    b = LatinSquare(np.array([1, 0, 2, 3, 4])[a.cells])
    assert intersection_size(a, b) == 15
    assert intersection_size(a, a) == 25
    with pytest.raises(ValueError):
        intersection_size(a, cyclic_square(4))


def test_intersection_is_invariant_under_joint_symmetry():
    # moving both squares by the same symmetry never changes the overlap
    rng = np.random.default_rng(7)
    a = cyclic_square(6)
    for _ in range(40):
        b = LatinSquare(rng.permutation(6)[a.cells])
        base = intersection_size(a, b)
        pi = rng.permutation(6)
        assert intersection_size(LatinSquare(a.cells[pi]), LatinSquare(b.cells[pi])) == base
        assert intersection_size(a.cells[:, pi], b.cells[:, pi]) == base
        assert intersection_size(pi[a.cells], pi[b.cells]) == base
        assert intersection_size(a.cells.T, b.cells.T) == base


def test_validation_error_carries_violation():
    try:
        LatinSquare([[0, 0], [1, 1]])
    except ValidationError as exc:
        assert exc.violation.kind == "row"
        assert "row" in str(exc)
    else:  # pragma: no cover
        pytest.fail("expected ValidationError")


def test_cyclic_square_is_built_once_and_read_only():
    sq = cyclic_square(7)
    assert cyclic_square(7) is sq
    assert not sq.cells.flags.writeable
    with pytest.raises(ValueError):
        sq.cells[0, 0] = 1
    assert sq.rows()[1] == (1, 2, 3, 4, 5, 6, 0)


def _built_pairs():
    """Certificates whose squares are views of one stack: a product pair, its
    transposed type, and each read back from canonical and spaced JSON."""
    from sudoku_spectra.spectrum import RealizationCertificate, realize_sudoku_pair

    made = [realize_sudoku_pair(4, 4, 100), realize_sudoku_pair(4, 3, 60)]
    texts = [c.to_json() for c in made] + [c.to_json().replace(",", ", ") for c in made]
    return made + [RealizationCertificate.from_json(text) for text in texts]


@pytest.mark.parametrize("index", range(6), ids=["product", "product-transposed", "json",
                                                 "json-transposed", "spaced", "spaced-transposed"])
def test_a_built_square_cannot_be_written_through_its_base(index):
    cert = _built_pairs()[index]
    assert cert.method == "product"
    for square in (cert.a, cert.b):
        base = square.cells.base
        assert base is not None and base.ndim == 3  # the pair's stack
        before = square.cells.copy()
        with pytest.raises(ValueError):
            base[0, 0, 0] = base[0, 0, 1]
        with pytest.raises(ValueError):
            square.cells[0, 0] = square.cells[0, 1]
        assert np.array_equal(square.cells, before)
    assert cert.verify() == cert.target


def test_equal_squares_hash_equal_however_built():
    from sudoku_spectra.spectrum import RealizationCertificate, realize_sudoku_pair

    cert = realize_sudoku_pair(3, 4, 50)
    rows = cert.a.cells.tolist()
    back = RealizationCertificate.from_json(cert.to_json())
    sudokus = [SudokuSquare(rows, cert.a.box_type), cert.a.transposed().transposed(), back.a]
    latins = [LatinSquare(rows), *(LatinSquare(s) for s in sudokus)]
    assert len({hash(sq) for sq in latins}) == 1
    assert len({hash(sq) for sq in sudokus}) == 1
    seen = {sq: k for k, sq in enumerate(latins)}
    assert len(seen) == 1 and seen[LatinSquare(rows)] == len(latins) - 1
    assert len(set(sudokus)) == 1 and LatinSquare(cert.b) not in seen
    assert hash(latins[0]) == hash(latins[0])  # stable once computed
    for square in (latins[0], LatinSquare(back.a), sudokus[0]):
        for name in ("cells", "_hash", "order"):
            with pytest.raises(AttributeError, match="SudokuSquare is immutable"):
                setattr(square, name, None)


def test_each_built_square_is_checked_once(monkeypatch):
    from sudoku_spectra import core
    from sudoku_spectra.construct import sudoku_reorder, triangle_product
    from sudoku_spectra.spectrum import RealizationCertificate, realize_sudoku_pair

    realize_latin_pair(8, 30)  # loads the (2, 4) seeds, checked as they are read
    # every check, public or from a constructor, runs core._check_lines;
    # every grid from outside is coerced by core.as_grid
    checks = []
    check_lines, as_grid = core._check_lines, core.as_grid

    def counted_check(grid, box_type):
        kind = "latin" if box_type == BoxType(1, grid.shape[-1]) else "sudoku"
        checks.append(kind if grid.ndim == 2 else f"{kind} x{grid.shape[0]}")
        return check_lines(grid, box_type)

    def counted_coercion(rows):
        checks.append("as_grid")
        return as_grid(rows)

    monkeypatch.setattr(core, "_check_lines", counted_check)
    monkeypatch.setattr(core, "as_grid", counted_coercion)

    def checks_made_by(build):
        checks.clear()
        result = build()
        return result, list(checks)

    bt = BoxType(2, 3)
    outer, family = cyclic_square(2), [[cyclic_square(3)] * 2] * 2
    product, made = checks_made_by(lambda: triangle_product(outer, family))
    assert made == ["as_grid", "latin"]
    s, made = checks_made_by(lambda: sudoku_reorder(product, 2, 3))
    assert made == ["as_grid", "sudoku"]
    assert checks_made_by(lambda: SudokuSquare(s.cells.tolist(), bt))[1] == ["as_grid", "sudoku"]
    assert checks_made_by(lambda: LatinSquare(s.cells.tolist()))[1] == ["as_grid", "latin"]
    # a square at its own box type or (1, n) is not checked again
    assert checks_made_by(lambda: SudokuSquare(s, bt))[1] == []
    assert checks_made_by(lambda: LatinSquare(s))[1] == []
    assert checks_made_by(lambda: validate_sudoku(s.cells, bt))[1] == ["as_grid", "sudoku"]
    assert checks_made_by(lambda: validate_latin(s.cells))[1] == ["as_grid", "latin"]
    assert checks_made_by(lambda: validate_latin(s))[1] == ["latin"]
    # a composite latin pair is its Sudoku pair's cells, checked once as a
    # stack of Sudoku squares and never again as latin squares
    for t in (0, 30, 40):
        pair, made = checks_made_by(lambda: realize_latin_pair(8, t, cache=PairCache()))
        assert made == ["sudoku x2"] and pair[0].box_type == BoxType(1, 8)
    # a holed prime pair is checked once, as a stack, around its seed hole
    pair, made = checks_made_by(lambda: realize_latin_pair(13, 40, cache=PairCache()))
    assert made == ["latin x2"] and pair[0].box_type == BoxType(1, 13)
    assert checks_made_by(lambda: random_latin_square(6))[1] == ["as_grid", "latin"]
    assert checks_made_by(s.transposed)[1] == []
    text = RealizationCertificate(s, s, 36, "product").to_json()
    # one check covers both grids; canonical text is parsed straight into
    # a coerced stack, any other JSON is coerced grid by grid
    assert checks_made_by(lambda: RealizationCertificate.from_json(text))[1] == ["sudoku x2"]
    spaced = text.replace(",", ", ")
    made = checks_made_by(lambda: RealizationCertificate.from_json(spaced))[1]
    assert made == ["as_grid", "as_grid", "sudoku x2"]

    # a warm product target of order n: each product's rows, columns and
    # boxes once, in one stacked check, and no check of the outer square
    lines = []
    check = core._lines_are_permutations

    def counted_lines(grid, box_type):
        grids, n = (grid.shape[0] if grid.ndim == 3 else 1), grid.shape[-1]
        lines.append(grids * 3 * n)
        return check(grid, box_type)

    monkeypatch.setattr(core, "_lines_are_permutations", counted_lines)
    for h, w in [(4, 6), (6, 4)]:
        cache = PairCache()
        realize_sudoku_pair(h, w, 300, cache=cache)
        lines.clear()
        realize_sudoku_pair(h, w, 300, cache=cache)
        assert sum(lines) == 6 * h * w

"""Realizing prescribed intersection values."""

import hashlib
import json
import re
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra import markov, spectrum
from sudoku_spectra.construct import MAX_ORDER, latin_spectrum, sudoku_spectrum
from sudoku_spectra.core import (
    BoxType,
    SudokuSquare,
    ValidationError,
    Violation,
    intersection_size,
    validate_latin,
)
from sudoku_spectra.formats import ParseError, canonical_json, grid_json, grids_from_json
from sudoku_spectra.seeds import DATABASE
from sudoku_spectra.spectrum import (
    CertificateError,
    PairCache,
    RealizationCertificate,
    SpectrumError,
    _box_type_for,
    realize_latin_pair,
    realize_sudoku_pair,
)
from tests.test_acceptance import REALIZE_TYPES


def test_latin_pairs_for_every_value_up_to_order_five():
    rng = np.random.default_rng(31)
    cache = PairCache()
    for w in range(1, 6):
        for s in sorted(latin_spectrum(w)):
            a, b = realize_latin_pair(w, s, rng, cache=cache)
            assert a.order == b.order == w
            assert intersection_size(a, b) == s, (w, s)


def test_latin_pairs_spot_checks_at_larger_orders():
    rng = np.random.default_rng(32)
    cache = PairCache()
    for w in (6, 7, 8, 9, 10, 12):
        n2 = w * w
        for s in (0, 1, n2 // 2, n2 - 6, n2 - 4, n2):
            a, b = realize_latin_pair(w, s, rng, cache=cache)
            assert intersection_size(a, b) == s, (w, s)


ORDER_11_LEFTOVERS = {5, 82, 98, 101, 102, 104, 110, 112, 115}


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` raise at every binding site in the package."""
    original = getattr(module, name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} must not run")

    sites = [mod for key, mod in list(sys.modules.items())
             if key.split(".")[0] == "sudoku_spectra" and getattr(mod, name, None) is original]
    for mod in sites:
        monkeypatch.setattr(mod, name, forbidden)
    return sites


def test_no_order_is_searched(monkeypatch):
    for name in ("_sample_grid", "random_latin_square"):
        assert markov in _forbid(monkeypatch, markov, name)
    for w in range(2, 14):
        cache = PairCache()
        for s in sorted(latin_spectrum(w)):
            a, b = realize_latin_pair(w, s, 0, cache=cache)
            assert a.order == b.order == w
            assert intersection_size(a, b) == s, (w, s)
    cache = PairCache()
    for h, w in REALIZE_TYPES:
        for t in sorted(sudoku_spectrum(h, w)):
            assert realize_sudoku_pair(h, w, t, 0, cache=cache).verify() == t
    assert _pairs_held_by_the_module() == []


def _pairs_held_by_the_module():
    return [name for name, value in vars(spectrum).items()
            if isinstance(value, PairCache) and len(value)]


def test_no_module_level_object_keeps_a_pair():
    for s in (0, 40, 100, 165):
        a, b = realize_latin_pair(13, s)
        assert intersection_size(a, b) == s
    assert realize_sudoku_pair(2, 13, 300).verify() == 300
    assert _pairs_held_by_the_module() == []


def test_pairs_do_not_depend_on_the_rng():
    for w in (5, 11, 13):
        for s in sorted(latin_spectrum(w)):
            a0, b0 = realize_latin_pair(w, s, 0, cache=PairCache())
            a1, b1 = realize_latin_pair(w, s, 1, cache=PairCache())
            assert a0 == a1 and b0 == b1, (w, s)


PRIMES = [11, 13, 17, 19, 23, 29, 31, 37]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_holed_pair_meets_in_k_a_plus_p_b_plus_x(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.sampled_from(range(4, p // 2 + 1, 2)))
    k = p - m
    a = data.draw(st.sampled_from([*range(m - 1), m]))
    b = data.draw(st.sampled_from([*range(k - 1), k]))
    x = data.draw(st.sampled_from(sorted(latin_spectrum(m))))
    sq_a, sq_b = spectrum._holed_pair(p, m, a, b, x, PairCache(), DATABASE)
    assert validate_latin(sq_a.cells).ok and validate_latin(sq_b.cells).ok
    assert set(sq_a.cells[k:, k:].ravel()) == set(range(m))  # the hole
    assert intersection_size(sq_a, sq_b) == k * a + p * b + x


def test_holed_split_misses_only_the_order_11_fixture_values():
    # every prime inner width under the default max order 144; without a
    # split or a fixture, realize_latin_pair raises AssertionError
    for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71):
        missed = {s for s in latin_spectrum(p) - {p * p} if spectrum._holed_split(p, s) is None}
        assert missed == (ORDER_11_LEFTOVERS if p == 11 else set()), p
    assert DATABASE.get(1, 11).labels() == ORDER_11_LEFTOVERS | {121}


def test_every_target_at_prime_orders_11_13_37_and_a_sample_at_71_realizes():
    worst = {}
    for w in (11, 13, 37, 71):
        targets = sorted(latin_spectrum(w))
        if w == 71:
            targets = targets[::97] + targets[-3:]
        worst[w] = 0.0
        for s in targets:
            start = time.perf_counter()
            a, b = realize_latin_pair(w, s, cache=PairCache())
            worst[w] = max(worst[w], time.perf_counter() - start)
            assert a.order == b.order == w
            assert validate_latin(a.cells).ok and validate_latin(b.cells).ok
            assert intersection_size(a, b) == s, (w, s)
    print("worst ms per target:", {w: round(1000 * t, 1) for w, t in worst.items()})


def test_composite_orders_use_a_box_type_with_the_same_spectrum():
    for w in range(2, 145):
        a, b = _box_type_for(w)
        assert a * b == w and a <= b
        if a > 1:
            assert sudoku_spectrum(a, b) == latin_spectrum(w), w
        else:
            assert all(w % d for d in range(2, w)), w  # only primes need seeds or holes


def test_latin_pair_rejects_impossible_values():
    for w, s in [(1, 0), (2, 1), (2, 3), (3, 1), (4, 5), (5, 24), (5, 20), (6, 33)]:
        with pytest.raises(SpectrumError):
            realize_latin_pair(w, s)
    with pytest.raises(ValueError):
        realize_latin_pair(0, 0)


def test_realizers_stop_at_the_order_limit():
    assert MAX_ORDER == 144
    a, b = realize_latin_pair(144, 0)
    assert a.order == 144 and intersection_size(a, b) == 0
    for build in (lambda: realize_latin_pair(145, 0), lambda: realize_sudoku_pair(5, 29, 0),
                  lambda: latin_spectrum(145), lambda: sudoku_spectrum(1, 145)):
        with pytest.raises(ValueError, match="^order 145 exceeds the limit 144$"):
            build()


def test_spectrum_error_messages_explain():
    with pytest.raises(SpectrumError, match="n\\^2-1"):
        realize_latin_pair(5, 23)
    with pytest.raises(SpectrumError, match="achievable values are"):
        realize_latin_pair(4, 5)


def test_pair_cache_memoizes_and_persists(tmp_path):
    path = tmp_path / "pairs.json"
    cache = PairCache(path)
    assert cache.get(4, 6) is None
    pair = realize_latin_pair(4, 6, cache=cache)
    assert cache.get(4, 6) == pair
    # a second call with the same cache returns the identical pair
    assert realize_latin_pair(4, 6, cache=cache) == pair

    reloaded = PairCache(path)
    assert len(reloaded) == 1
    a, b = reloaded.get(4, 6)
    assert intersection_size(a, b) == 6


def test_pair_cache_drops_bad_entries(tmp_path):
    path = tmp_path / "pairs.json"
    good_a = [[0, 1], [1, 0]]
    good_b = [[1, 0], [0, 1]]
    payload = {
        "2:0": [good_a, good_b],
        "2:4": [good_a, good_b],  # label lies: intersection is 0
        "nonsense": [good_a, good_b],
        "3:0": [[[0, 0], [0, 0]], good_b],  # not latin
        "4:16": 5,  # not a pair
        "4:0": [good_a, good_b, good_a],  # three squares
        "5:0": "ab",  # strings, not grids
    }
    path.write_text(json.dumps(payload))
    cache = PairCache(path)
    assert len(cache) == 1
    assert cache.get(2, 0) is not None
    assert cache.get(2, 4) is None


def test_pair_cache_drops_entries_holding_json_booleans(tmp_path):
    # valid pairs once true and false are read as 1 and 0, as squares and
    # certificates do not read them
    path = tmp_path / "pairs.json"
    path.write_text('{"2:0":[[[0,true],[true,0]],[[1,0],[0,1]]]}\n'
                    '{"2:4":[[[0,1],[1,0]],[[0,1],[1,false]]]}\n')
    assert len(PairCache(path)) == 0


def _entry_line(w, s, a, b):
    return canonical_json({f"{w}:{s}": [a.cells.tolist(), b.cells.tolist()]}) + "\n"


def test_pair_cache_appends_one_canonical_line_per_new_pair(tmp_path):
    path = tmp_path / "pairs.json"
    pairs = {(w, s): realize_latin_pair(w, s, cache=PairCache()) for w, s in [(4, 6), (5, 0)]}
    cache = PairCache(path)
    before = b""
    for (w, s), (a, b) in pairs.items():
        cache.put(w, s, (a, b))
        data = path.read_bytes()
        assert data.startswith(before)  # earlier bytes are never rewritten
        assert data[len(before):].decode() == _entry_line(w, s, a, b)
        before = data
    reloaded = PairCache(path)
    assert len(reloaded) == 2
    assert all(reloaded.get(w, s) == pair for (w, s), pair in pairs.items())


def test_pair_cache_hit_writes_nothing(tmp_path):
    path = tmp_path / "pairs.json"
    cache = PairCache(path)
    pair = realize_latin_pair(4, 6, cache=cache)
    data = path.read_bytes()
    assert realize_latin_pair(4, 6, cache=cache) == pair
    assert realize_latin_pair(4, 6, cache=PairCache(path)) == pair
    assert path.read_bytes() == data


def test_pair_caches_sharing_a_file_keep_each_others_entries(tmp_path):
    path = tmp_path / "pairs.json"
    first, second = PairCache(path), PairCache(path)
    realize_latin_pair(4, 6, cache=first)
    realize_latin_pair(5, 0, cache=second)
    reloaded = PairCache(path)
    assert reloaded.get(4, 6) == first.get(4, 6)
    assert reloaded.get(5, 0) == second.get(5, 0)


def test_pair_cache_loads_a_single_object_file_and_appends_after_it(tmp_path):
    path = tmp_path / "pairs.json"
    good_a = [[0, 1], [1, 0]]
    good_b = [[1, 0], [0, 1]]
    # one sorted-keys object with no trailing newline, as whole-file rewrites wrote it
    legacy = canonical_json({"2:0": [good_a, good_b], "2:3": [good_a, good_b],
                             "2:4": [good_a, good_a]})
    path.write_text(legacy)
    cache = PairCache(path)
    assert len(cache) == 2 and cache.get(2, 3) is None
    a, b = realize_latin_pair(4, 6, cache=PairCache())
    cache.put(4, 6, (a, b))
    assert path.read_text() == legacy + _entry_line(4, 6, a, b)
    reloaded = PairCache(path)
    assert len(reloaded) == 3
    assert reloaded.get(2, 4) == cache.get(2, 4) and reloaded.get(4, 6) == (a, b)


def test_pair_cache_rejects_a_torn_last_line(tmp_path):
    path = tmp_path / "pairs.json"
    cache = PairCache(path)
    realize_latin_pair(4, 6, cache=cache)
    data = path.read_bytes() + b'{"5:0":[[[0,1'
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        PairCache(path)
    assert exc.value.kind == "cache"
    assert path.read_bytes() == data


def test_a_file_cache_gives_the_in_memory_pairs_at_order_13(tmp_path):
    path = tmp_path / "pairs.json"
    on_file, in_memory = PairCache(path), PairCache()
    values = sorted(latin_spectrum(13))
    for s in values:
        pair = realize_latin_pair(13, s, cache=on_file)
        assert pair == realize_latin_pair(13, s, cache=in_memory)
    reloaded = PairCache(path)
    assert len(reloaded) == len(in_memory) == 186
    assert all(reloaded.get(13, s) == in_memory.get(13, s) for s in values)


@pytest.mark.parametrize("data", [b"[1, 2]", b'"pairs"', b"{not json", b"\xff\x00\xfe", b"",
                                  pytest.param(b"[" * 100_000, id="nested-too-deep")])
def test_pair_cache_rejects_a_file_that_is_not_a_json_object(tmp_path, data):
    path = tmp_path / "pairs.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        PairCache(path)
    assert exc.value.kind == "cache"
    assert path.read_bytes() == data  # left for the user to inspect


def test_seed_types_realize_from_fixtures():
    for h, w in [(2, 2), (2, 3), (3, 3)]:
        for t in sorted(sudoku_spectrum(h, w)):
            cert = realize_sudoku_pair(h, w, t)
            assert cert.method == "seed"
            assert cert.verify() == t
            assert cert.a.box_type == BoxType(h, w)


def test_a_warm_target_builds_one_latin_pair_per_distinct_part(monkeypatch):
    cache = PairCache()
    targets = [0, 69, 600, 1200, 1292, 1296]  # 69 = 36 + 30 + 3: four distinct parts
    for t in targets:
        realize_sudoku_pair(6, 6, t, cache=cache)
    calls = []
    build = spectrum._latin_pair

    def counted(w, s, *args):
        calls.append(s)
        return build(w, s, *args)

    monkeypatch.setattr(spectrum, "_latin_pair", counted)
    for t in targets:
        calls.clear()
        assert realize_sudoku_pair(6, 6, t, cache=cache).verify() == t
        parts = spectrum.decompose_target(t, 6, 6).parts
        assert sorted(calls) == sorted(set(parts)) and len(calls) <= 4, t


def test_transposed_seed_types():
    cert = realize_sudoku_pair(3, 2, 17)
    assert cert.a.box_type == BoxType(3, 2)
    assert cert.verify() == 17
    flipped = realize_sudoku_pair(2, 3, 17)
    assert np.array_equal(cert.a.cells, flipped.a.cells.T)


def test_width_four_mixes_seeds_and_products():
    rng = np.random.default_rng(33)
    cache = PairCache()
    n2 = 64
    methods = {}
    for t in sorted(sudoku_spectrum(2, 4)):
        cert = realize_sudoku_pair(2, 4, t, rng, cache=cache)
        assert cert.verify() == t
        methods[t] = cert.method
    seed_targets = {t for t, m in methods.items() if m == "seed"}
    assert seed_targets == {n2 - 11, n2 - 9, n2 - 6}
    assert all(m == "product" for t, m in methods.items() if t not in seed_targets)


def test_tall_types_are_transposed_products():
    cert = realize_sudoku_pair(4, 2, 10)
    assert cert.a.box_type == BoxType(4, 2)
    assert cert.verify() == 10


def test_large_type_spot_checks():
    rng = np.random.default_rng(34)
    cache = PairCache()
    for h, w, t in [(5, 5, 0), (5, 5, 619), (5, 5, 625), (3, 5, 100), (2, 6, 47),
                    (2, 32, 4089), (2, 48, 0)]:
        cert = realize_sudoku_pair(h, w, t, rng, cache=cache)
        assert cert.verify() == t
        assert cert.method == "product"


def test_realize_rejects_impossible_targets():
    with pytest.raises(SpectrumError):
        realize_sudoku_pair(2, 2, 5)
    with pytest.raises(SpectrumError):
        realize_sudoku_pair(2, 3, 31)
    with pytest.raises(SpectrumError):
        realize_sudoku_pair(2, 3, 37)
    with pytest.raises(ValueError):
        realize_sudoku_pair(1, 4, 0)
    with pytest.raises(ValueError):
        realize_sudoku_pair(12, 13, 0)  # order 156 over the limit


def test_certificate_json_round_trip():
    cert = realize_sudoku_pair(2, 4, 40)
    text = cert.to_json()
    back = RealizationCertificate.from_json(text)
    assert back.target == cert.target
    assert back.method == cert.method
    assert np.array_equal(back.a.cells, cert.a.cells)
    assert np.array_equal(back.b.cells, cert.b.cells)
    # canonical form is stable
    assert back.to_json() == text


def test_certificate_json_matches_the_nested_int_list_form():
    cert = realize_sudoku_pair(3, 4, 100, np.random.default_rng(7), cache=PairCache())
    nested = {
        "h": 3,
        "w": 4,
        "target": 100,
        "method": cert.method,
        "a": [list(map(int, row)) for row in cert.a.cells.tolist()],
        "b": [list(map(int, row)) for row in cert.b.cells.tolist()],
    }
    assert cert.to_json() == canonical_json(nested)


def _never(*args, **kwargs):
    raise AssertionError("canonical certificate text must not reach json.loads")


@pytest.mark.parametrize("h, w", [(2, 2), (2, 5), (3, 4), (10, 10), (2, 51), (12, 12)],
                         ids=["n4", "n10", "n12", "n100", "n102", "n144"])
def test_certificate_json_is_canonical_at_every_digit_width(h, w, monkeypatch):
    # the orders where the widest symbol gains a digit, and their neighbours
    t = (h * w) ** 2 - 4
    cert = realize_sudoku_pair(h, w, t)
    text = cert.to_json()
    assert text == canonical_json({"h": h, "w": w, "target": t, "method": cert.method,
                                   "a": cert.a.cells.tolist(), "b": cert.b.cells.tolist()})
    monkeypatch.setattr(spectrum, "read_json_object", _never)
    assert RealizationCertificate.from_json(text) == cert


def _outcome(text, general_only=False):
    """What ``from_json`` gives for ``text``: the certificate, or the
    exception's type, kind and message.  ``general_only`` sends every text
    through ``json.loads`` and the field checks."""
    fast = (lambda text: None) if general_only else spectrum._canonical_certificate
    with mock.patch.object(spectrum, "_canonical_certificate", fast):
        try:
            return RealizationCertificate.from_json(text)
        except ValueError as exc:  # ParseError, validation and CertificateError alike
            return type(exc), getattr(exc, "kind", None), str(exc)


def _first_cell(pattern):
    return lambda text: re.sub(r'("a":\[\[)(\d+)', pattern, text, count=1)


def _reformat(**dumps):
    return lambda text: json.dumps(json.loads(text), **dumps)


CANONICAL_MUTATIONS = {
    "unchanged": lambda text: text,
    "spaces": _reformat(),
    "indented": _reformat(indent=1),
    "newline-after": lambda text: text + "\n",
    "keys-reversed": lambda text: json.dumps(dict(reversed(json.loads(text).items())),
                                             separators=(",", ":")),
    "leading-zero": _first_cell(r"\g<1>0\2"),
    "minus-one": _first_cell(r"\g<1>-1"),
    "float": _first_cell(r"\g<1>\2.0"),
    "out-of-range": _first_cell(r"\g<1>99"),
    "other-symbol": _first_cell(lambda m: m[1] + str((int(m[2]) + 1) % 6)),
    "ragged-row": lambda text: re.sub(r'("a":\[\[[^\]]*),\d+\]', r"\1]", text, count=1),
    "extra-bracket": lambda text: text.replace('"a":[[', '"a":[[[', 1),
    "missing-bracket": lambda text: text.replace('"a":[[', '"a":[', 1),
    "double-comma": lambda text: re.sub(r'("a":\[\[\d+),', r"\1,,", text, count=1),
    "bytes": lambda text: text.encode(),
    "h-w-swapped": lambda text: text.replace('"h":2', '"h":3').replace('"w":3', '"w":2'),
    "w-too-large": lambda text: text.replace('"w":3', '"w":4'),
    "h-5000-digits": lambda text: text.replace('"h":2', '"h":' + "9" * 5000),
    "target-huge": lambda text: text.replace('"target":10', '"target":' + "9" * 30),
    "h-one": lambda text: text.replace('"h":2', '"h":1').replace('"w":3', '"w":6'),
    "target-off": lambda text: text.replace('"target":10', '"target":11'),
    "method-unknown": lambda text: text.replace('"product"', '"banana"').replace('"seed"', '"banana"'),
}


@pytest.mark.parametrize("mutate", CANONICAL_MUTATIONS.values(), ids=CANONICAL_MUTATIONS)
def test_canonical_reader_agrees_with_json_loads(mutate):
    text = mutate(realize_sudoku_pair(2, 3, 10).to_json())
    assert _outcome(text) == _outcome(text, general_only=True)


EDIT_BASES = [realize_sudoku_pair(2, 3, 10).to_json(), realize_sudoku_pair(3, 4, 100).to_json()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_reader_agrees_with_json_loads_after_any_one_edit(data):
    text = data.draw(st.sampled_from(EDIT_BASES))
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from('0123456789,[]-. "'))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    keep = at if edit == "insert" else at + 1
    text = text[:at] + ("" if edit == "delete" else char) + text[keep:]
    assert _outcome(text) == _outcome(text, general_only=True)


def _move_closing_bracket(a, b):
    return a[:-1], "]" + b  # grid a's last "]" opens grid b


def _move_last_value(a, b):
    head, last = a[:-2].rsplit(",", 1)
    return head + "]]", "[[" + last + "," + b[2:]  # a loses a value, b gains it: still 2n^2


def _add_value(a, b):
    return a[:-2] + ",0]]", b  # n^2 + 1 values in a


def _move_split(a, b):
    comma = b.index(",")
    return a + "," + b[:comma], b[comma + 1:]  # joined with a comma, the same text


@pytest.mark.parametrize("move", [_move_closing_bracket, _move_last_value, _add_value, _move_split],
                         ids=["bracket-moved", "value-moved", "extra-value", "split-moved"])
@pytest.mark.parametrize("h, w", [(2, 3), (6, 6)])
def test_one_pass_reader_checks_each_grid_exactly(move, h, w):
    # both grids are parsed as one list of values; each must still re-encode
    # to its own text, so a boundary moved between them is caught
    cert = realize_sudoku_pair(h, w, 10)
    text_a, text_b = grid_json(cert.a.cells), grid_json(cert.b.cells)
    bad_a, bad_b = move(text_a, text_b)
    text = cert.to_json().replace(f'"a":{text_a},"b":{text_b}', f'"a":{bad_a},"b":{bad_b}')
    assert grids_from_json([bad_a, bad_b], h * w) is None
    assert spectrum._canonical_certificate(text) is None
    with pytest.raises(ParseError) as exc:
        RealizationCertificate.from_json(text)
    assert exc.value.kind == "certificate"
    assert _outcome(text) == _outcome(text, general_only=True)
    assert np.array_equal(grids_from_json([text_a, text_b], h * w), [cert.a.cells, cert.b.cells])
    assert RealizationCertificate.from_json(_reformat(indent=1)(cert.to_json())) == cert


def test_certificate_rejects_tampering():
    cert = realize_sudoku_pair(2, 3, 10)
    obj = json.loads(cert.to_json())
    obj["target"] = 11
    with pytest.raises(CertificateError):
        RealizationCertificate.from_json(json.dumps(obj))
    # a wrong target is outside input, caught with every other ValueError
    with pytest.raises(ValueError, match="pair meets in 10 cells, claimed 11"):
        RealizationCertificate.from_json(json.dumps(obj))
    bad = RealizationCertificate(cert.a, cert.b, cert.target + 1, cert.method)
    with pytest.raises(CertificateError):
        bad.verify()


@pytest.mark.parametrize("mutate", [
    lambda obj: "nope",
    lambda obj: "{}",
    lambda obj: "[1]",
    lambda obj: "[" * 100_000,
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "target"}),
    lambda obj: json.dumps({**obj, "h": "2"}),
    lambda obj: json.dumps({**obj, "w": 3.0}),
    lambda obj: json.dumps({**obj, "target": True}),
    lambda obj: json.dumps({**obj, "method": 7}),
    lambda obj: json.dumps({**obj, "a": "012345"}),
    lambda obj: json.dumps({**obj, "b": None}),
    lambda obj: json.dumps({**obj, "h": 1, "w": 6}),
    lambda obj: json.dumps({**obj, "method": "banana"}),
    lambda obj: json.dumps({**obj, "w": 4}),
    # the same certificate once true and false are read as 1 and 0
    lambda obj: json.dumps({**obj, "a": [[{0: False, 1: True}.get(v, v) for v in obj["a"][0]]]
                                        + obj["a"][1:]}),
], ids=["not-json", "empty-object", "array", "nested-too-deep", "no-target", "h-string", "w-float",
        "target-bool", "method-int", "a-string", "b-null", "h-below-2", "method-unknown",
        "order-not-h-times-w", "a-booleans"])
def test_certificate_from_json_tags_malformed_payloads(mutate):
    obj = json.loads(realize_sudoku_pair(2, 3, 10).to_json())
    with pytest.raises(ParseError) as exc:
        RealizationCertificate.from_json(mutate(obj))
    assert exc.value.kind == "certificate"


def _repeat_in_row(rows):
    rows[0][0] = rows[0][1]


def _repeat_in_column(rows):
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]


def _repeat_in_box_only(rows):
    rows[1], rows[2] = rows[2], rows[1]  # a row swap across bands keeps the square latin


@pytest.mark.parametrize("side, spoil, kind", [
    ("a", _repeat_in_row, "row"),
    ("a", _repeat_in_column, "column"),
    ("b", _repeat_in_box_only, "box"),
    ("b", lambda rows: rows.pop(), None),
    ("b", lambda rows: [row.pop() for row in rows[2:]], None),
], ids=["a-row", "a-column", "b-box", "b-short", "b-ragged"])
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "spaced"])
def test_certificate_rejections_match_the_square_constructor(side, spoil, kind, canonical):
    obj = json.loads(realize_sudoku_pair(2, 3, 10).to_json())
    spoil(obj[side])
    with pytest.raises(ValueError) as built:
        SudokuSquare(obj[side], BoxType(2, 3))
    assert getattr(built.value, "violation", Violation(None, (), 0)).kind == kind
    expected = type(built.value), str(built.value)
    if kind is None:  # a malformed grid is tagged, as before
        expected = ParseError, f"certificate grid: {built.value}"
    text = canonical_json(obj) if canonical else json.dumps(obj)
    # canonical text of two order-6 grids takes the stacked fast path
    assert (spectrum._canonical_certificate(text) is not None) == (canonical and kind is not None)
    with pytest.raises(ValueError) as read:
        RealizationCertificate.from_json(text)
    assert (type(read.value), str(read.value)) == expected


def test_a_corrupted_product_cell_is_rejected(monkeypatch):
    gather = spectrum._block_products
    built = []

    def corrupt_b(*args, **kwargs):
        grids = gather(*args, **kwargs)
        n = grids.shape[-1]
        grids[1, 2, 3] = (grids[1, 2, 3] + 1) % n
        built.append(grids[1].copy())
        return grids

    monkeypatch.setattr(spectrum, "_block_products", corrupt_b)
    for h, w in [(3, 4), (4, 3)]:
        with pytest.raises(ValidationError) as exc:
            realize_sudoku_pair(h, w, 70)
        with pytest.raises(ValidationError) as alone:
            SudokuSquare(built[-1], BoxType(min(h, w), max(h, w)))
        assert (type(exc.value), str(exc.value)) == (type(alone.value), str(alone.value))


# box types of the realize-sweep benchmark workload; each is followed by
# its transpose when that differs
SWEEP_TYPES = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4),
               (2, 5), (3, 5), (5, 5), (4, 5), (4, 6), (6, 6)]
SWEEP_SHA256 = "811d79501d3bf5e77306661d48526ba5df0510bce07ac12bc9fe5a7b454baa17"


def test_certificates_of_the_sweep_types_are_pinned():
    digest, count = hashlib.sha256(), 0
    for h, w in SWEEP_TYPES:
        for box in dict.fromkeys([(h, w), (w, h)]):
            for t in sorted(sudoku_spectrum(*box)):
                digest.update(realize_sudoku_pair(*box, t).to_json().encode())
                count += 1
    assert count == 5304
    assert digest.hexdigest() == SWEEP_SHA256


def test_certificate_catches_box_type_mismatch():
    c23 = realize_sudoku_pair(2, 3, 36)
    c32 = realize_sudoku_pair(3, 2, 36)
    mixed = RealizationCertificate(c23.a, c32.b, 36, "seed")
    with pytest.raises(CertificateError):
        mixed.verify()

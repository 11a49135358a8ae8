"""End-to-end command line behavior, run in process."""

import json

import pytest

from sudoku_spectra import cli, enumeration
from sudoku_spectra.cli import main
from sudoku_spectra.construct import upsilon
from sudoku_spectra.core import BoxType
from sudoku_spectra.formats import parse, serialize
from sudoku_spectra.markov import sample_sudoku
from sudoku_spectra.spectrum import RealizationCertificate


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "sudoku-spectra" in capsys.readouterr().out


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_realize_prints_verified_value(capsys):
    rc, out, err = run(capsys, "realize", "--h", "2", "--w", "3", "--t", "19")
    assert rc == 0
    assert out.strip() == "19"


def test_realize_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    rc, out, _ = run(
        capsys, "realize", "--h", "2", "--w", "4", "--t", "40",
        "--out", str(cert_path),
    )
    assert rc == 0 and out.strip() == "40"
    cert = RealizationCertificate.from_json(cert_path.read_text())
    assert cert.target == 40
    assert cert.a.box_type == BoxType(2, 4)


def test_realize_cache_file_round_trip(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    args = ("realize", "--h", "2", "--w", "5", "--t", "73", "--cache", str(cache_path))
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out.strip() == "73"
    first = cache_path.read_bytes()
    lines = first.decode().splitlines()
    assert lines and all(isinstance(json.loads(line), dict) for line in lines)
    rc, out, _ = run(capsys, *args)  # second run hits the cache
    assert rc == 0 and out.strip() == "73"
    assert cache_path.read_bytes() == first


def test_realize_cache_in_a_missing_directory_names_the_path(tmp_path, capsys):
    cache_path = tmp_path / "missing" / "cache.json"
    rc, out, err = run(capsys, "realize", "--h", "2", "--w", "5", "--t", "73",
                       "--cache", str(cache_path))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and str(cache_path) in err


@pytest.mark.parametrize("text", ["[]", '{"4:16": 5}x',
                                  pytest.param("[" * 100_000, id="nested-too-deep")])
def test_realize_with_unreadable_cache_exits_1(tmp_path, capsys, text):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(text)
    rc, out, err = run(capsys, "realize", "--h", "2", "--w", "5", "--t", "73",
                       "--cache", str(cache_path))
    assert rc == 1 and out == ""
    assert err.startswith("error: cache file") and err.count("\n") == 1
    assert "Traceback" not in err
    assert cache_path.read_text() == text


def test_realize_impossible_value_exits_2(capsys):
    rc, out, err = run(capsys, "realize", "--h", "2", "--w", "2", "--t", "5")
    assert rc == 2
    assert out == ""
    assert "not an achievable intersection" in err


def test_realize_near_full_message_names_the_gaps(capsys):
    rc, _, err = run(capsys, "realize", "--h", "2", "--w", "3", "--t", "35")
    assert rc == 2
    assert "n^2-1" in err and "35" in err


def test_realize_over_order_limit_exits_1(capsys):
    # one limit, construct.MAX_ORDER = 144, for every command that builds a spectrum
    for argv, n in [(["realize", "--h", "12", "--w", "13", "--t", "0"], 156),
                    (["spectrum", "--h", "12", "--w", "13"], 156),
                    (["spectrum", "--h", "1", "--w", "145"], 145)]:
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err == f"error: order {n} exceeds the limit 144\n"


def test_realize_at_the_order_limit(capsys):
    rc, out, _ = run(capsys, "realize", "--h", "12", "--w", "12", "--t", "0")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run(capsys, "spectrum", "--h", "12", "--w", "12")
    assert rc == 0 and out.split() == [str(v) for v in sorted(upsilon(144))]


def test_realize_rejects_latin_box_types(capsys):
    # the realizer builds Sudoku pairs only; latin pairs come from the library
    for h, w in [("1", "5"), ("5", "1")]:
        rc, out, err = run(capsys, "realize", "--h", h, "--w", w, "--t", "0")
        assert rc == 1 and out == ""
        assert err.startswith("error: box type needs h, w >= 2")


def test_verify_all_styles(tmp_path, capsys):
    a = sample_sudoku(2, 3, 7)
    b = sample_sudoku(2, 3, 8)
    for style in ("single_line", "grid", "json"):
        pa, pb = tmp_path / f"a.{style}", tmp_path / f"b.{style}"
        pa.write_text(serialize(a, style) + "\n")
        pb.write_text(serialize(b, style) + "\n")
        rc, out, _ = run(capsys, "verify", str(pa), str(pb), "--h", "2", "--w", "3")
        assert rc == 0
        lines = out.strip().splitlines()
        assert "valid" in lines[0]
        value = int(lines[-1])
        assert 0 <= value <= 36
        # explicit style agrees with auto sniffing
        rc2, out2, _ = run(capsys, "verify", str(pa), str(pb),
                           "--h", "2", "--w", "3", "--style", style)
        assert rc2 == 0 and out2 == out


def test_verify_rejects_invalid_square(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("012345|012345|012345|012345|012345|012345\n")
    good = tmp_path / "good.txt"
    good.write_text(serialize(sample_sudoku(2, 3, 1), "single_line") + "\n")
    rc, _, err = run(capsys, "verify", str(bad), str(good), "--h", "2", "--w", "3")
    assert rc == 1
    assert "error" in err


def test_verify_rejects_json_nested_too_deep(tmp_path, capsys):
    deep = tmp_path / "a.json"
    deep.write_text('{"h":2,"w":2,"rows":' + "[" * 100_000)
    rc, out, err = run(capsys, "verify", str(deep), str(deep), "--h", "2", "--w", "2")
    assert rc == 1 and out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_missing_file_exits_1(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(serialize(sample_sudoku(2, 3, 1), "single_line") + "\n")
    rc, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"), str(good),
                     "--h", "2", "--w", "3")
    assert rc == 1
    assert "error" in err


def test_spectrum_theorem_mode(capsys):
    rc, out, _ = run(capsys, "spectrum", "--h", "2", "--w", "3")
    assert rc == 0
    values = list(map(int, out.split()))
    assert values == sorted(set(range(31)) | {32, 36})


def test_spectrum_brute_mode(capsys):
    rc, out, err = run(capsys, "spectrum", "--h", "2", "--w", "2", "--mode", "brute")
    assert rc == 0
    assert list(map(int, out.split())) == [0, 1, 2, 3, 4, 6, 8, 9, 12, 16]
    assert "288 squares" in err


@pytest.mark.parametrize("mode", ["theorem", "brute"])
def test_spectrum_of_latin_box_types(capsys, mode):
    # a latin square is box type (1, n) or (n, 1) in every spectrum mode
    for h, w in [("1", "5"), ("5", "1")]:
        rc, out, _ = run(capsys, "spectrum", "--h", h, "--w", w, "--mode", mode)
        assert rc == 0
        assert list(map(int, out.split())) == list(range(20)) + [21, 25]


def test_spectrum_brute_mode_bounds(capsys, monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("bounds must be checked before enumerating")

    monkeypatch.setattr(enumeration, "enumerate_squares", enumerate_nothing)
    for h, w in [("3", "3"), ("1", "6"), ("6", "1")]:
        rc, _, err = run(capsys, "spectrum", "--h", h, "--w", w, "--mode", "brute")
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err


def test_spectrum_seeds_mode(capsys):
    rc, out, err = run(capsys, "spectrum", "--h", "3", "--w", "3", "--mode", "seeds")
    assert rc == 0
    values = list(map(int, out.split()))
    assert values == sorted(set(range(76)) | {77, 81})
    assert "full spectrum" in err
    # latin fixtures are box type (1, w), compared with the latin spectrum
    rc, out, err = run(capsys, "spectrum", "--h", "1", "--w", "7", "--mode", "seeds")
    assert rc == 0 and "full spectrum" in err
    rc, out, err = run(capsys, "spectrum", "--h", "1", "--w", "11", "--mode", "seeds")
    assert rc == 0 and "a subset" in err
    assert out.split() == "5 82 98 101 102 104 110 112 115 121".split()
    for h, w in [("5", "5"), ("4", "2")]:
        rc, out, err = run(capsys, "spectrum", "--h", h, "--w", w, "--mode", "seeds")
        assert rc == 1 and out == ""
        assert err.startswith(f"error: no seed fixture for box type ({h}, {w})")
        assert "(3, 3)" in err and "(1, 11)" in err


def test_sample_is_deterministic_and_parseable(capsys):
    rc, out1, _ = run(capsys, "sample", "--h", "3", "--w", "3", "--seed", "11")
    rc2, out2, _ = run(capsys, "sample", "--h", "3", "--w", "3", "--seed", "11")
    assert rc == rc2 == 0
    assert out1 == out2
    parse(out1.strip(), BoxType(3, 3), "single_line")


def test_sample_grid_format(capsys):
    rc, out, _ = run(capsys, "sample", "--h", "2", "--w", "4", "--seed", "3", "--format", "grid")
    assert rc == 0
    parse(out, BoxType(2, 4), "grid")


def test_sample_passes_effort_only_when_given(capsys, monkeypatch):
    # without --effort the sampler's own default budget applies
    budgets = []

    def recording(h, w, rng=None, **budget):
        budgets.append(budget)
        return sample_sudoku(h, w, rng, **budget)

    monkeypatch.setattr(cli, "sample_sudoku", recording)
    rc, out, _ = run(capsys, "sample", "--h", "3", "--w", "3", "--seed", "11")
    assert rc == 0
    assert out.strip() == serialize(sample_sudoku(3, 3, 11), "single_line")
    assert run(capsys, "sample", "--h", "3", "--w", "3", "--seed", "11", "--effort", "3")[0] == 0
    assert budgets == [{}, {"effort": 3}]


def test_sample_out_of_budget_exits_1(capsys):
    rc, out, err = run(capsys, "sample", "--h", "2", "--w", "3", "--seed", "0", "--effort", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: failed to sample a (2, 3) Sudoku square")


def test_sample_above_the_sampler_order_exits_1(capsys):
    rc, out, err = run(capsys, "sample", "--h", "15", "--w", "17", "--seed", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: sampler order 255 exceeds 254")


@pytest.mark.parametrize("argv, flag, low", [
    (["sample", "--h", "2", "--w", "3", "--effort", "-1"], "--effort", 0),
], ids=["effort-negative"])
def test_counts_below_their_floor_are_usage_errors(capsys, argv, flag, low):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least {low}, got {argv[-1]}" in captured.err


def test_counts_at_their_floor_are_accepted(capsys):
    rc, out, _ = run(capsys, "sample", "--h", "2", "--w", "2", "--seed", "1")
    assert rc == 0 and out.strip() == serialize(sample_sudoku(2, 2, 1), "single_line")
    rc, out, _ = run(capsys, "spectrum", "--h", "2", "--w", "2", "--mode", "brute")
    assert rc == 0 and out.split() == "0 1 2 3 4 6 8 9 12 16".split()


@pytest.mark.parametrize("argv", [
    # every pair is built without randomness, so there is nothing to seed
    ["realize", "--h", "2", "--w", "3", "--t", "19", "--seed", "5"],
    # the census and the brute-force sweep run serially
    ["pentadoku", "--threads", "2"],
    ["spectrum", "--h", "2", "--w", "3", "--mode", "brute", "--threads", "2"],
    # the sampler has one path, so there are no chain steps to add
    ["sample", "--h", "2", "--w", "3", "--steps", "1"],
    # the order limit is construct.MAX_ORDER, not a knob
    ["realize", "--h", "2", "--w", "3", "--t", "0", "--max-order", "5"],
], ids=["realize-seed", "pentadoku-threads", "spectrum-threads", "sample-steps",
        "realize-max-order"])
def test_realize_has_no_seed_flag(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("h, w", [(2, 71), (3, 47)])
def test_realize_at_the_largest_prime_widths(tmp_path, capsys, h, w):
    n = h * w  # 142 and 141, under the order limit 144
    t = n * n - 4
    cert_path = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "realize", "--h", str(h), "--w", str(w), "--t", str(t),
                     "--out", str(cert_path))
    assert rc == 0 and out.strip() == str(t)
    cert = RealizationCertificate.from_json(cert_path.read_text())
    assert cert.verify() == t and cert.a.box_type == BoxType(h, w)


def test_pentadoku_to_file(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    rc, out, _ = run(capsys, "pentadoku", "--out", str(out_path))
    assert rc == 0
    assert out.strip() == "4 58 44 1"
    body = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
    assert len(body) == 108  # header + one row per tiling


def test_pentadoku_json_to_stdout(capsys):
    rc, out, err = run(capsys, "pentadoku", "--format", "json")
    assert rc == 0
    assert err.strip() == "4 58 44 1"
    obj = json.loads(out)
    assert len(obj["tilings"]) == 107

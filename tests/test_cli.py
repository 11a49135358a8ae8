"""End-to-end command line behavior, run in process."""

import json

import pytest

from sudoku_spectra import enumeration, markov
from sudoku_spectra.cli import main
from sudoku_spectra.construct import upsilon
from sudoku_spectra.core import BoxType, intersection_size
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
    # each file's style is read from its own text, so the two may differ
    a = sample_sudoku(2, 3, 7)
    b = sample_sudoku(2, 3, 8)
    expected = f"both squares are valid (2, 3) Sudoku latin squares\n{intersection_size(a, b)}\n"
    for style_a, style_b in [("single_line",) * 2, ("grid",) * 2, ("json",) * 2, ("json", "grid")]:
        pa, pb = tmp_path / f"a.{style_a}", tmp_path / f"b.{style_b}"
        pa.write_text(serialize(a, style_a) + "\n")
        pb.write_text(serialize(b, style_b) + "\n")
        rc, out, _ = run(capsys, "verify", str(pa), str(pb), "--h", "2", "--w", "3")
        assert rc == 0 and out == expected


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


def test_sample_out_of_budget_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(markov, "_BUDGET", 0)
    rc, out, err = run(capsys, "sample", "--h", "2", "--w", "3", "--seed", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: failed to sample a (2, 3) Sudoku square in 0 units")


def test_sample_at_seeds_beyond_fixed_restarts_exits_0(capsys):
    # (5, 6) seed 95 and (4, 9) seed 0 ran out of 50 fixed attempts of 2n^2 nodes
    rc, out, _ = run(capsys, "sample", "--h", "5", "--w", "6", "--seed", "95")
    assert rc == 0
    parse(out.strip(), BoxType(5, 6), "single_line")
    rc, out, _ = run(capsys, "sample", "--h", "4", "--w", "9", "--seed", "0", "--format", "grid")
    assert rc == 0
    parse(out, BoxType(4, 9), "grid")


def test_sample_above_the_sampler_order_exits_1(capsys):
    rc, out, err = run(capsys, "sample", "--h", "15", "--w", "17", "--seed", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error: sampler order 255 exceeds 254")


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
    # the sampler's node budget is one policy in markov, not a knob
    ["sample", "--h", "2", "--w", "3", "--effort", "3"],
    # the order limit is construct.MAX_ORDER, not a knob
    ["realize", "--h", "2", "--w", "3", "--t", "0", "--max-order", "5"],
    # the realizer builds its own pairs in milliseconds, so a file cache cannot pay
    ["realize", "--h", "2", "--w", "3", "--t", "19", "--cache", "pairs.json"],
    # each file's style is read from its text
    ["verify", "a.json", "b.json", "--h", "2", "--w", "3", "--style", "json"],
], ids=["realize-seed", "pentadoku-threads", "spectrum-threads", "sample-steps",
        "sample-effort", "realize-max-order", "realize-cache", "verify-style"])
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

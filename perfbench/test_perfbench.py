"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import sudoku_spectra as ss  # noqa: E402
from measure import REF_KERNEL_S, SpeedProbe, call_with_cap, percentile, tail_level  # noqa: E402
from tracing import PER_LAYER, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Context, exhaustive  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, "t", None, False]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("a", 7.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["root"] == (1, 10.0 - 3.0 - 1.0 - 2.0)
    assert totals["a"] == (2, (3.0 - 1.0) + 2.0)
    assert totals["leaf"] == (1, 1.0)
    assert totals["b"] == (1, 1.0)
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_self_time_of_one_target():
    spans = [span("op", 0.0, 2.0), span("x", 0.5, 1.0, 0)]
    spans.append(["op", 3.0, 4.0, -1, "other", None, False])
    assert self_times(spans, "t") == {"op": (1, 1.5), "x": (1, 0.5)}


def test_tracer_records_nesting_and_self_times_add_up():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        inner()
        inner()
        return 7

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    tracer.target = "op-1"
    assert outer() == 7
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {"op-1"}
    root = tracer.spans[0]
    totals = self_times(tracer.spans)
    assert totals["inner"][0] == 2
    assert sum(s for _, s in totals.values()) == pytest.approx(root[2] - root[1])


def test_percentile_rule_keeps_ten_samples_beyond():
    assert tail_level(3780) == 99.0
    assert tail_level(240) == 95.0
    assert tail_level(200) == 95.0
    assert tail_level(199) == 90.0
    assert tail_level(100) == 90.0
    assert tail_level(99) == 75.0
    assert tail_level(20) == 50.0
    assert tail_level(19) is None
    values = list(range(1, 101))
    assert percentile(values, 95) == 95
    assert percentile(values, 50) == 50
    assert percentile([3.0], 99) == 3.0


def test_speed_probe_scales_short_calls_by_the_window_median_and_long_by_the_mean():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 1.1, 1.2, 3.0]
    probe.seconds = [0.001, 0.002, 0.001, 0.004, 0.008]
    wall, scale = probe.measure(1.05, 1.25)
    assert wall == pytest.approx(0.2 - 0.005)
    assert scale == pytest.approx(REF_KERNEL_S / 0.002)  # median of the 1.0..1.2 probes
    probe.starts = [0.1 * k for k in range(10)]
    probe.seconds = [0.001] * 9 + [0.011]
    wall, scale = probe.measure(0.05, 1.0)  # probes 1..9 ran inside
    assert wall == pytest.approx(0.95 - 0.019)
    assert scale == pytest.approx(REF_KERNEL_S * 9 / 0.019)


def test_speed_probe_samples_while_active_and_stops_after():
    with SpeedProbe(interval=0.005) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    count = len(probe.starts)
    assert count >= 5 and len(probe.seconds) == count
    assert probe.starts == sorted(probe.starts)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _package_bindings():
    import sudoku_spectra.cli  # noqa: F401  (one more binding site)

    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "sudoku_spectra"]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_cap_stops_a_slow_search_and_leaves_the_package_unchanged():
    before = _package_bindings()
    limit = sys.getrecursionlimit()
    cached = len(ss.spectrum.DEFAULT_PAIR_CACHE)
    handler = signal.getsignal(signal.SIGALRM)

    start = time.perf_counter()
    out, capped = call_with_cap(
        lambda: ss.realize_latin_pair(9, 30, 0, cache=ss.PairCache()), 0.1)
    assert capped and out is None
    assert time.perf_counter() - start < 1.0

    assert sys.getrecursionlimit() == limit
    assert len(ss.spectrum.DEFAULT_PAIR_CACHE) == cached
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert _package_bindings() == before
    a, b = ss.realize_latin_pair(5, 10, 0, cache=ss.PairCache())
    assert ss.intersection_size(a, b) == 10


def test_fast_call_under_cap_returns_its_result():
    assert call_with_cap(lambda: 41 + 1, 5.0) == (42, False)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_rebinds_every_binding_site_and_restores_them():
    before = _package_bindings()
    with Tracer() as tracer:
        for module in (ss, ss.core, ss.construct, ss.spectrum, ss.cli):
            if hasattr(module, "intersection_size"):
                assert module.intersection_size.__wrapped__ is before[("sudoku_spectra.core",
                                                                      "intersection_size")]
        assert ss.spectrum.realize_latin_pair is ss.realize_latin_pair
        assert ss.cli.realize_sudoku_pair is ss.realize_sudoku_pair
        tracer.target = "cap"
        _, capped = call_with_cap(
            lambda: ss.realize_latin_pair(9, 30, 0, cache=ss.PairCache()), 0.1)
        assert capped
        cert = ss.realize_sudoku_pair(2, 4, 10, 0, cache=ss.PairCache())
        ss.RealizationCertificate.from_json(cert.to_json())
    assert _package_bindings() == before
    names = {s[0] for s in tracer.spans}
    assert {"spectrum.realize_latin_pair", "spectrum.cache.get", "core.validate_latin",
            "spectrum.certificate.json", "spectrum.certificate.verify"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)
    capped_span = tracer.spans[0]
    assert capped_span[0] == "spectrum.realize_latin_pair" and capped_span[6]


def test_exhaustive_checks_accept_the_right_answers():
    cheap = [op for op in exhaustive(Context(0, 0, "", None, full=True))
             if op.key.startswith(("latin-", "sudoku-2x2"))]
    assert len(cheap) == 6
    for op in cheap:
        assert op.check(op.run()), op.key


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

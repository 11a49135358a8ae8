#!/usr/bin/env python3
"""Benchmark of sudoku-spectra: one closed-loop caller runs a workload's
operations, checks every output, and prints its metrics.

    python3 perfbench/run.py --workload realize-sweep --seed 0 --seconds 25 --trace 0

A run repeats passes over the workload's operation list (pass k draws its
randomness from the seed and k) and starts a new pass only while the last
pass's duration still fits in ``--seconds``; at least one pass always
runs.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
passes untraced for half the time, then the same passes again with every
traced package function rebound to a span-recording wrapper, and prints
the per-layer metrics (per pass) and the tracing overhead.  The last line
of stdout is one JSON object; the lines before it are a readable report.
Results and spans go to ``.perfbench_out/`` at the root of the checkout.
"""
from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; everything runs with jobs=1
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import SpeedProbe, call_with_cap, percentile, tail_level
from tracing import PER_LAYER, Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# (name, unit, better): what a run with --trace 0 reports, for every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("op_gmean_ms", "ms", "lower"),
)


@dataclass
class Record:
    key: str
    group: str
    wall: float  # seconds as measured
    seconds: float  # at reference speed
    status: str  # "ok" | "capped" | "wrong" | "error"
    parts: dict = field(default_factory=dict)  # sub-times, at reference speed


@dataclass
class Pass:
    records: list
    wall: float

    @property
    def op_seconds(self) -> float:
        return sum(r.seconds for r in self.records)


def run_pass(build, ctx, tracer=None) -> Pass:
    """Run one pass of ``build(ctx)``'s operations, one call at a time,
    while probing the machine's speed.  A cap is given in reference
    seconds and converted to wall seconds at the speed just measured."""
    ops = build(ctx)
    timed = []  # (op, begin, end, status, result or error)
    start = time.perf_counter()
    with SpeedProbe() as probe:
        for op in ops:
            call = op.run
            if tracer is not None:
                tracer.target = op.key
                call = lambda run=op.run: tracer.call("op", run)
            probe.maybe_probe()
            cap = None if op.cap_s is None else op.cap_s / probe.recent_scale()
            begin = time.perf_counter()
            try:
                out, capped = call_with_cap(call, cap)
                status = "capped" if capped else "ok"
            except Exception as exc:  # a failed operation is counted, never dropped
                out, status = repr(exc), "error"
            timed.append((op, begin, time.perf_counter(), status, out))
    wall_total = time.perf_counter() - start

    records = []
    for op, begin, end, status, out in timed:
        wall, scale = probe.measure(begin, end)
        parts = {"error": out} if status == "error" else {}
        if status == "ok":
            try:
                status = "ok" if op.check(out) else "wrong"
                if op.parts is not None:
                    parts = {k: v * scale for k, v in op.parts(out).items()}
            except Exception as exc:
                status, parts = "wrong", {"error": repr(exc)}
        seconds = op.cap_s if status == "capped" else wall * scale
        records.append(Record(op.key, op.group, wall, seconds, status, parts))
    return Pass(records, wall_total)


def tracing_overhead(untraced: list[Pass], traced: list[Pass]) -> float:
    """Reference seconds per pass that the traced passes took beyond the
    same untraced passes, over the operations neither run capped."""
    extra = sum(b.seconds - a.seconds
                for p, q in zip(untraced, traced) for a, b in zip(p.records, q.records)
                if "capped" not in (a.status, b.status))
    return extra / len(traced)


def setup_seconds(workdir: str) -> list[tuple[float, float]]:
    """Set-up times in fresh interpreters (package import, seed database
    and pair cache), each as (wall, reference) seconds."""
    times = []
    for i in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), os.path.join(workdir, f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        wall, scaled = probe.stdout.split()[-2:]
        times.append((float(wall), float(scaled)))
    return times


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
    }


def summary(workload: str, passes: list[Pass]) -> dict:
    """The per-workload figures named after what each workload measures
    (realize_per_s, latin_pairs_s, brute_s, ...), for the readable report.
    Sums over a pass are averaged over the passes."""
    records = [r for p in passes for r in p.records]
    seconds = [r.seconds for r in records]
    failed = sum(r.status in ("wrong", "error") for r in records)
    out = {"failed_frac": failed / len(records), "ops": len(records), "passes": len(passes),
           "pass_wall_s": sum(r.wall for r in records) / len(passes)}

    def latency(prefix, values):
        level = tail_level(len(values))
        out[f"{prefix}_p50_ms"] = percentile(values, 50) * 1e3
        if level is not None:
            out[f"{prefix}_p{level:g}_ms"] = percentile(values, level) * 1e3

    def per_pass(group):
        return sum(r.seconds for r in records if r.group == group) / len(passes)

    if workload == "realize-sweep":
        from workloads import ACCEPTANCE_TYPES

        out["realize_per_s"] = len(seconds) / sum(seconds)
        latency("realize", seconds)
        groups = dict.fromkeys(r.group for r in records)
        out["subtotal_s"] = {g: per_pass(g) for g in groups}
        out["acceptance_types_s"] = sum(out["subtotal_s"][f"{h}x{w}"] for h, w in ACCEPTANCE_TYPES)
    elif workload == "latin-pairs":
        out["latin_pairs_s"] = sum(seconds) / len(passes)
        latency("latin_pair", seconds)
        out["order_s"] = {g: per_pass(g) for g in dict.fromkeys(r.group for r in records)}
    elif workload == "exhaustive":
        out["brute_s"] = per_pass("brute")
        out["census_s"] = per_pass("census")
        out["op_s"] = {r.key: 0.0 for r in passes[0].records}
        for r in records:
            out["op_s"][r.key] += r.seconds / len(passes)
    elif workload == "sample":
        done = [r for r in records if "roundtrip_s" in r.parts]
        sample_s = [r.parts.get("sample_s", r.seconds) for r in records]
        out["sample_per_s"] = len(sample_s) / sum(sample_s)
        latency("sample", sample_s)
        out["roundtrip_per_s"] = 3 * len(done) / sum(r.parts["roundtrip_s"] for r in done)
    over = [r.key for r in records if r.status == "capped"]
    out["over_cap"] = {key: over.count(key) for key in dict.fromkeys(over)}
    out["failures"] = [[r.key, r.status, r.parts.get("error")] for r in records
                       if r.status in ("wrong", "error")]
    return out


def print_report(title: str, metrics: dict, units: dict, extra: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name:44s} {value:14.6g}")
        elif value:
            print(f"  {name}: {json.dumps(value, default=str)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="exhaustive: also compute the (2,3) spectrum in full (about a minute)")
    args = parser.parse_args(argv)

    if not (SRC / "sudoku_spectra" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sudoku_spectra

    if Path(sudoku_spectra.__file__).resolve().parent != SRC / "sudoku_spectra":
        print(f"perfbench: imported sudoku_spectra from {sudoku_spectra.__file__}", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        info = machine()
        print("machine " + json.dumps(info))
        setups = setup_seconds(workdir)
        db = workloads.setup(workdir)

        def run_passes(seconds, seed_db=db, tracer=None, count=None):
            """Passes while the last one still fits in ``seconds`` (at least
            one), or exactly ``count`` passes."""
            passes = []
            deadline = time.perf_counter() + seconds
            while count is None or len(passes) < count:
                ctx = workloads.Context(args.seed, len(passes), workdir, seed_db, args.full)
                passes.append(run_pass(build, ctx, tracer))
                if count is None and time.perf_counter() + passes[-1].wall > deadline:
                    break
            return passes

        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": info, "setup_probes_s": setups}
        if args.trace == 0:
            passes = run_passes(args.seconds)
            metrics = {
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "pass_s": sum(p.op_seconds for p in passes) / len(passes),
                "op_gmean_ms": statistics.geometric_mean(
                    r.seconds for p in passes for r in p.records) * 1e3,
            }
            units = {name: unit for name, unit, _ in END_TO_END}
        else:
            # the same passes, untraced then traced, in half the time each
            passes = run_passes(args.seconds / 2)
            with Tracer() as tracer:
                tracer.target = "setup"
                traced_db = tracer.call("setup", lambda: workloads.setup(workdir))
                traced = run_passes(0, traced_db, tracer, count=len(passes))
            over_cap = sum(r.status == "capped" for p in passes for r in p.records) \
                if args.workload == "latin-pairs" else 0
            walls = {"untraced": sum(p.wall for p in passes), "traced": sum(p.wall for p in traced)}
            metrics = layer_metrics(tracer.spans, len(traced), sum(len(p.records) for p in traced),
                                    over_cap, tracing_overhead(passes, traced))
            units = {name: unit for name, unit, _ in PER_LAYER}
            split = {}
            for target in ("sudoku-2x3-orbits", "sudoku-2x3"):
                totals = self_times(tracer.spans, target)
                if totals:
                    split[target] = {name: self_s / len(traced) for name, (_, self_s) in totals.items()}
            result.update(split_2x3_self_s=split, walls_s=walls)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes += traced
        extra = summary(args.workload, passes[:len(passes) // 2] if args.trace else passes)
        extra.update({k: result[k] for k in ("split_2x3_self_s", "walls_s") if k in result})
        print_report(f"{args.workload} seed={args.seed} trace={args.trace}", metrics, units, extra)

        records = [r for p in passes for r in p.records]
        failed = sum(r.status in ("wrong", "error") for r in records)
        result.update(metrics=metrics, summary=extra,
                      records=[[p_i, r.key, r.wall, r.seconds, r.status] for p_i, p in enumerate(passes)
                               for r in p.records])
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
            json.dump(result, f, indent=1, default=str)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload turns ``(seed, pass index)`` into a list of operations.  An
operation calls the package through ``sudoku_spectra`` module attributes at
call time (so a traced run sees the rebound names), returns what it
computed, and a separate check compares that with the known answer.  The
checks run outside the timed region; expected values are computed when
the list is built, before any tracing starts.
"""
from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import sudoku_spectra as ss
from sudoku_spectra import enumeration

REALIZE_TYPES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4),
                 (2, 5), (3, 5), (5, 5), (4, 5), (4, 6), (6, 6))
ACCEPTANCE_TYPES = REALIZE_TYPES[:9]  # the box types tests/test_acceptance.py realizes
LATIN_ORDERS = (5, 6, 7, 8, 9)
LATIN_CAP_S = 0.25
SAMPLE_TYPES = ((3, 3), (4, 4), (3, 5), (2, 8), (3, 6), (4, 5))
SAMPLE_CAP_S = 0.15
LATIN_TOTALS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161_280}
CENSUS_SUMMARY = (4, 58, 44, 1)


@dataclass
class Op:
    key: str  # target id, e.g. "3x3 t=17"
    group: str  # subtotal bucket, e.g. "3x3"
    run: Callable[[], object]
    check: Callable[[object], bool]
    cap_s: float | None = None
    parts: Callable[[object], dict] | None = None  # named sub-times of one call


@dataclass
class Context:
    """State shared by the operations of one pass."""

    seed: int
    index: int
    workdir: str
    seed_db: object
    full: bool = False


def setup(workdir: str):
    """The set-up every workload pays: the seed database with every
    fixture loaded, and an empty file-backed pair cache."""
    db = ss.SeedDatabase()
    for h, w in db.types():
        db.get(h, w)
    ss.PairCache(os.path.join(workdir, "setup-cache.json"))
    return db


def realize_sweep(ctx: Context) -> list[Op]:
    """Every achievable t, ascending, at each box type, sharing one
    file-backed pair cache as ``realize --cache`` does."""
    rng = np.random.default_rng([ctx.seed, ctx.index])
    cache = ss.PairCache(os.path.join(tempfile.mkdtemp(dir=ctx.workdir), "pairs.json"))
    ops = []
    for h, w in REALIZE_TYPES:
        for t in sorted(ss.sudoku_spectrum(h, w)):
            def run(h=h, w=w, t=t):
                cert = ss.realize_sudoku_pair(h, w, t, rng, cache=cache, seed_db=ctx.seed_db)
                verified = cert.verify()
                back = ss.RealizationCertificate.from_json(cert.to_json())
                return cert, verified, back

            def check(out, t=t):
                cert, verified, back = out
                return cert.target == verified == t and back == cert

            ops.append(Op(f"{h}x{w} t={t}", f"{h}x{w}", run, check))
    return ops


def latin_pairs(ctx: Context) -> list[Op]:
    """Every achievable s at orders 5..9, a fresh in-memory cache per
    target, each call under a wall cap."""
    ops = []
    for w in LATIN_ORDERS:
        for s in sorted(ss.latin_spectrum(w)):
            def run(w=w, s=s):
                rng = np.random.default_rng([ctx.seed, ctx.index, w, s])
                a, b = ss.realize_latin_pair(w, s, rng, cache=ss.PairCache())
                return a.order, b.order, ss.intersection_size(a, b)

            ops.append(Op(f"{w}:{s}", str(w), run,
                          lambda out, w=w, s=s: out == (w, w, s), LATIN_CAP_S))
    return ops


def exhaustive(ctx: Context) -> list[Op]:
    """Brute-force spectra at latin orders 1..5 and box type (2,2), the
    (2,3) enumeration and orbit reduction, and the cage census.  Uses no
    randomness.  With ``full`` the (2,3) spectrum is computed in full."""
    ops = []
    for n in range(1, 6):
        ops.append(Op(f"latin-{n}", "brute",
                      lambda n=n: ss.brute_force_latin_spectrum(n),
                      lambda r, e=(ss.latin_spectrum(n), LATIN_TOTALS[n]):
                      (r.values, r.total_count) == e))
    ops.append(Op("sudoku-2x2", "brute", lambda: ss.brute_force_spectrum(2, 2),
                  lambda r, e=(ss.sudoku_spectrum(2, 2), 288): (r.values, r.total_count) == e))

    def orbits_2x3():
        box = ss.BoxType(2, 3)
        canon = ss.enumerate_squares(6, box)
        reps = enumeration.orbit_representatives(canon, 6, enumeration.position_group(6, box))
        return len(canon) * 720, len(reps)

    ops.append(Op("sudoku-2x3-orbits", "brute", orbits_2x3,
                  lambda r: r == (28_200_960, 49)))
    if ctx.full:
        ops.append(Op("sudoku-2x3", "brute", lambda: ss.brute_force_spectrum(2, 3),
                      lambda r, e=(ss.sudoku_spectrum(2, 3), 28_200_960, 49):
                      (r.values, r.total_count, r.orbit_count) == e))

    def census():
        report = ss.classify_all()
        return len(report.classes), report.summary()

    ops.append(Op("census", "census", census, lambda r: r == (107, CENSUS_SUMMARY)))
    return ops


def sample(ctx: Context) -> list[Op]:
    """One sampled square at each box type, serialized in all three styles
    and parsed back; the pass ends by sampling its first square again,
    which must come out identical."""
    ops = []
    for h, w in SAMPLE_TYPES:
        def run(h=h, w=w, key=(ctx.seed, ctx.index, h, w)):
            box = ss.BoxType(h, w)
            start = time.perf_counter()
            square = ss.sample_sudoku(h, w, np.random.default_rng(key))
            sampled = time.perf_counter()
            back = [ss.parse(ss.serialize(square, style), box, style)
                    for style in ss.formats.STYLES]
            done = time.perf_counter()
            valid = ss.validate_sudoku(square.cells, box).ok
            return square, valid, back, {"sample_s": sampled - start,
                                         "roundtrip_s": done - sampled}

        ops.append(Op(f"{h}x{w}", f"{h}x{w}", run,
                      lambda out: out[1] and all(b == out[0] for b in out[2]),
                      SAMPLE_CAP_S, lambda out: out[3]))
    first = ops[0]
    reference = {}

    def run_first(run=first.run):
        out = run()
        reference["square"] = out[0]
        return out

    first.run = run_first
    h, w = SAMPLE_TYPES[0]

    def repeat(key=(ctx.seed, ctx.index, h, w)):
        return ss.sample_sudoku(h, w, np.random.default_rng(key))

    ops.append(Op(f"{h}x{w} repeat", f"{h}x{w}", repeat,
                  lambda square: square == reference.get("square"), SAMPLE_CAP_S))
    return ops


WORKLOADS = {
    "realize-sweep": realize_sweep,
    "latin-pairs": latin_pairs,
    "exhaustive": exhaustive,
    "sample": sample,
}

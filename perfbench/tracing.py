"""Span tracing for the traced benchmark run.

A ``Tracer`` rebinds public functions and methods of ``sudoku_spectra`` to
span-recording wrappers and restores the originals on exit.  A function
is rebound at every binding site: ``from .x import y`` binds ``y`` again
in each importing module, so every module of the package that holds the
original object gets the wrapper.

A span is ``[name, start, end, parent, target, note, raised]``: ``parent``
is the index of the enclosing span (-1 at the top), ``target`` the id of
the operation being run, ``note`` an optional number taken from the
result (a cache hit, a count of representatives).  Spans stay in memory
until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "sudoku_spectra"


def _style(prefix: str, position: int, default: str | None):
    def name(args, kwargs) -> str:
        style = kwargs.get("style", args[position] if len(args) > position else default)
        return f"{prefix}.{style}"

    return name


def _found(result) -> int:
    return int(result is not None)


# (module, function, span name, note)
FUNCTIONS = (
    ("core", "validate_latin", "core.validate_latin", None),
    ("core", "validate_sudoku", "core.validate_sudoku", None),
    ("core", "intersection_size", "core.intersection_size", None),
    ("construct", "triangle_product", "construct.triangle_product", None),
    ("construct", "sudoku_reorder", "construct.sudoku_reorder", None),
    ("construct", "decompose_target", "construct.decompose_target", None),
    ("construct", "latin_spectrum", "construct.latin_spectrum", None),
    ("spectrum", "realize_sudoku_pair", "spectrum.realize_sudoku_pair", None),
    ("spectrum", "realize_latin_pair", "spectrum.realize_latin_pair", None),
    ("seeds", "load_seed_set", "seeds.load", None),
    ("enumeration", "enumerate_squares", "enumeration.enumerate_squares", None),
    ("enumeration", "orbit_representatives", "enumeration.orbit_representatives", len),
    ("enumeration", "brute_force_latin_spectrum", "enumeration.sweep", None),
    ("enumeration", "brute_force_spectrum", "enumeration.sweep", None),
    ("pentadoku", "enumerate_tilings", "pentadoku.enumerate_tilings", None),
    ("pentadoku", "solve_cage_latin", "pentadoku.solve_cage_latin", None),
    ("pentadoku", "tiling_spectrum", "pentadoku.tiling_spectrum", None),
    ("markov", "sample_sudoku", "markov.sample_sudoku", None),
    ("markov", "random_latin_square", "markov.random_latin_square", None),
    ("formats", "serialize", _style("formats.serialize", 1, "single_line"), None),
    ("formats", "parse", _style("formats.parse", 2, None), None),
)

# (module, class, method, span name, note)
METHODS = (
    ("spectrum", "PairCache", "get", "spectrum.cache.get", _found),
    ("spectrum", "PairCache", "put", "spectrum.cache.put", None),
    ("spectrum", "RealizationCertificate", "verify", "spectrum.certificate.verify", None),
    ("spectrum", "RealizationCertificate", "to_json", "spectrum.certificate.json", None),
    ("spectrum", "RealizationCertificate", "from_json", "spectrum.certificate.json", None),
    ("seeds", "SeedSet", "pair_for", "seeds.pair_for", None),
)

STYLES = ("single_line", "grid", "json")

# (name, unit, better): every metric a traced run reports, per traced pass
PER_LAYER = (
    ("core.validate_latin.calls", "calls/pass", "lower"),
    ("core.validate_latin.self_s", "s/pass", "lower"),
    ("core.validate_sudoku.calls", "calls/pass", "lower"),
    ("core.validate_sudoku.self_s", "s/pass", "lower"),
    ("core.intersection_size.calls", "calls/pass", "lower"),
    ("core.intersection_size.self_s", "s/pass", "lower"),
    ("core.validations_per_target", "calls/target", "lower"),
    ("construct.triangle_product.calls", "calls/pass", "lower"),
    ("construct.triangle_product.self_s", "s/pass", "lower"),
    ("construct.sudoku_reorder.self_s", "s/pass", "lower"),
    ("construct.decompose_target.self_s", "s/pass", "lower"),
    ("construct.latin_spectrum.calls", "calls/pass", "lower"),
    ("spectrum.realize_sudoku_pair.self_s", "s/pass", "lower"),
    ("spectrum.realize_latin_pair.calls", "calls/pass", "lower"),
    ("spectrum.realize_latin_pair.self_s", "s/pass", "lower"),
    ("spectrum.random_bases_per_pair", "bases/pair", "lower"),
    ("spectrum.latin_pairs_over_cap", "targets/pass", "lower"),
    ("spectrum.cache.hit_ratio", "ratio", "higher"),
    ("spectrum.cache.put.calls", "calls/pass", "lower"),
    ("spectrum.cache.put.self_s", "s/pass", "lower"),
    ("spectrum.certificate.verify.self_s", "s/pass", "lower"),
    ("spectrum.certificate.json.self_s", "s/pass", "lower"),
    ("seeds.load.self_s", "s", "lower"),  # in the traced set-up, once per run
    ("seeds.pair_for.calls", "calls/pass", "lower"),
    ("enumeration.enumerate_squares.self_s", "s/pass", "lower"),
    ("enumeration.orbit_representatives.self_s", "s/pass", "lower"),
    ("enumeration.sweep.self_s", "s/pass", "lower"),
    ("enumeration.orbit_count", "orbits/pass", "lower"),
    ("pentadoku.enumerate_tilings.self_s", "s/pass", "lower"),
    ("pentadoku.solve_cage_latin.calls", "calls/pass", "lower"),
    ("pentadoku.solve_cage_latin.self_s", "s/pass", "lower"),
    ("pentadoku.tiling_spectrum.self_s", "s/pass", "lower"),
    ("markov.sample_sudoku.calls", "calls/pass", "lower"),
    ("markov.sample_sudoku.self_s", "s/pass", "lower"),
    ("markov.sample_sudoku.fail_ratio", "ratio", "lower"),
    ("markov.random_latin_square.calls", "calls/pass", "lower"),
    ("markov.random_latin_square.self_s", "s/pass", "lower"),
    *((f"formats.{kind}.{style}.self_s", "s/pass", "lower")
      for kind in ("serialize", "parse") for style in STYLES),
    ("trace.overhead_s", "s/pass", "lower"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.target: str | None = None
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """``fn`` wrapped to record one span per call.  ``name`` is a string
        or a function of the call's ``(args, kwargs)``."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock(), 0.0, open_[-1] if open_ else -1, self.target, None, True]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[6] = False
                if note is not None:
                    span[5] = note(result)
                return result
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def call(self, name: str, fn):
        """Run ``fn()`` inside one span."""
        return self.wrap(name, fn)()

    def rebind_function(self, module, attr: str, name, note=None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, note)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def rebind_method(self, cls, attr: str, name, note=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, note))
        else:
            replacement = self.wrap(name, raw, note)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        modules = {name: sys.modules[f"{PACKAGE}.{name}"]
                   for name in ("core", "construct", "spectrum", "seeds", "enumeration",
                                "pentadoku", "markov", "formats")}
        try:
            for mod, attr, name, note in FUNCTIONS:
                self.rebind_function(modules[mod], attr, name, note)
            for mod, cls, attr, name, note in METHODS:
                self.rebind_method(getattr(modules[mod], cls), attr, name, note)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans, target=None) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), where a span's self time is
    its duration minus the durations of its direct children.  Spans of
    one thread nest, so direct children never overlap.  With ``target``,
    only spans of that operation are counted."""
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _, span_target, *_) in enumerate(spans):
        if target is not None and span_target != target:
            continue
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - child[i])
    return totals


def layer_metrics(spans, passes: int, targets: int, over_cap: int,
                  overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER value from ``passes`` traced passes of ``targets``
    operations in all; counts and seconds are per pass, except the
    set-up's ``seeds.load.self_s``."""
    totals = self_times(spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    gets = [s for s in spans if s[0] == "spectrum.cache.get"]
    sample_raised = sum(1 for s in spans if s[0] == "markov.sample_sudoku" and s[6])
    # latin pairs that had to be searched for: a cache miss, then a result
    missed = {s[3] for s in gets if s[5] == 0}
    searched = sum(1 for i, s in enumerate(spans)
                   if s[0] == "spectrum.realize_latin_pair" and not s[6] and i in missed)
    orbit_count = sum(s[5] for s in spans
                      if s[0] == "enumeration.orbit_representatives" and not s[6])

    values = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = totals.get(head, (0, 0.0))[field == "self_s"] / passes
    values.update({
        "seeds.load.self_s": totals.get("seeds.load", (0, 0.0))[1],  # the set-up runs once
        "core.validations_per_target": ratio(
            calls("core.validate_latin") + calls("core.validate_sudoku"), targets),
        "spectrum.random_bases_per_pair": ratio(calls("markov.random_latin_square"), searched),
        "spectrum.latin_pairs_over_cap": over_cap / passes,
        "spectrum.cache.hit_ratio": ratio(sum(s[5] for s in gets if not s[6]), len(gets)),
        "enumeration.orbit_count": orbit_count / passes,
        "markov.sample_sudoku.fail_ratio": ratio(sample_raised, calls("markov.sample_sudoku")),
        "trace.overhead_s": overhead_s / passes,
    })
    return values

"""The benchmark still runs against the package.

``perfbench/run.py --trace 1`` rebinds each name in ``tracing.FUNCTIONS``
and ``tracing.METHODS``; a name deleted from the package would stop the
traced run.  The operations in ``workloads.py`` call the package with
fixed signatures; a changed one would make the run fail.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"sudoku_spectra.{name}")


def test_every_traced_function_resolves():
    missing = [(mod, fn) for mod, fn, *_ in _load("tracing").FUNCTIONS
               if not callable(getattr(_module(mod), fn, None))]
    assert missing == []


def test_every_traced_method_resolves():
    # the tracer reads methods from the class __dict__, not through inheritance
    missing = [(mod, cls, name) for mod, cls, name, *_ in _load("tracing").METHODS
               if name not in vars(getattr(_module(mod), cls, object))]
    assert missing == []


def test_workload_operations_pass_their_checks(tmp_path):
    # every exhaustive operation, and the first of each group elsewhere:
    # one call per signature the benchmark uses, without its timing caps
    workloads = _load("workloads")
    ctx = workloads.Context(0, 0, str(tmp_path), workloads.setup(str(tmp_path)))
    ops = workloads.exhaustive(ctx)
    for build in (workloads.realize_sweep, workloads.latin_pairs, workloads.sample):
        first = {}
        for op in build(ctx):
            first.setdefault(op.group, op)
        ops += first.values()
    assert len(ops) == 8 + 12 + 5 + 6
    failed = [op.key for op in ops if not op.check(op.run())]
    assert failed == []

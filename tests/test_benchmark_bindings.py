"""Every function and method the benchmark's tracer rebinds still exists.

``perfbench/run.py --trace 1`` rebinds each name in ``tracing.FUNCTIONS``
and ``tracing.METHODS``; a name deleted from the package would stop the
traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"sudoku_spectra.{name}")


def test_every_traced_function_resolves():
    missing = [(mod, fn) for mod, fn, *_ in _tracing().FUNCTIONS
               if not callable(getattr(_module(mod), fn, None))]
    assert missing == []


def test_every_traced_method_resolves():
    # the tracer reads methods from the class __dict__, not through inheritance
    missing = [(mod, cls, name) for mod, cls, name, *_ in _tracing().METHODS
               if name not in vars(getattr(_module(mod), cls, object))]
    assert missing == []

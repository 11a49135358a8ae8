"""Every narrated demo runs to completion, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sudoku_spectra

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(sudoku_spectra.__file__).parents[1]))
    # -W error: pytest's filterwarnings does not reach a subprocess
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

"""The README's walkthroughs in ``demos/`` run to the end without an error, and
with every scipy import blocked."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from _no_scipy import BLOCK_SCIPY

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    script = BLOCK_SCIPY + f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__main__')\n"
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "Traceback" not in run.stdout + run.stderr

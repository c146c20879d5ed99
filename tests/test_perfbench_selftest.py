"""The benchmark's own self-tests, run as part of the suite.

``perfbench/selftest.py`` checks at tiny sizes that every workload runs and
that the tracer sees every layer, so a change that hides estimator calls
from the tracer (``estimators.calls`` = 0) fails here as well.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr

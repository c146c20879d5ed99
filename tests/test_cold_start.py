"""``cqmeans estimate``, ``cqmeans harmonic-check``, ``cqmeans variance-table``,
the Monte Carlo path (``simulate``, ``clt-check`` and ``run_experiment``, on
a Cauchy or a uniform source, with the CLT diagnostics of 1,000 or more
replications) and ``integrate_real_line`` run with every scipy import
blocked, and ``estimate`` loads neither ``fractions`` nor ``decimal``.

The check runs in a fresh interpreter, because any earlier test may have
imported scipy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from _no_scipy import BLOCK_SCIPY

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = BLOCK_SCIPY + """
import contextlib, io, json, math, sys
import cqmeans, cqmeans.cli

ran = []
for flag, alpha in (("geometric", "0,0"), ("geometric", "0,1"), ("mobius", "0,1"),
                    ("two-step", "0,1")):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cqmeans.cli.main(["estimate", "--input", sys.argv[1],
                                 "--estimator", flag, "--alpha", alpha])
    assert code == 0, (flag, code)
ran.append("estimate")
# the reader's table of powers of ten comes from int arithmetic alone
assert not {"fractions", "decimal"} & set(sys.modules), "estimate imported fractions or decimal"
with contextlib.redirect_stdout(io.StringIO()):
    code = cqmeans.cli.main(["harmonic-check", "--n", "2", "--reps", "1000", "--seed", "4"])
assert code == 0, code
ran.append("harmonic-check")
with contextlib.redirect_stdout(io.StringIO()):
    code = cqmeans.cli.main(["variance-table", "--estimator", "geometric", "--alpha", "0.5,1"])
assert code == 0, code
ran.append("variance-table")
# 2,048 replications: the CLT diagnostics' QQ quantiles come from harness._ndtri
with contextlib.redirect_stdout(io.StringIO()):
    code = cqmeans.cli.main(["simulate", "--estimator", "geometric", "--alpha", "1,2",
                             "--n", "2", "--reps", "2048", "--seed", "3"])
assert code in (0, 5), code
ran.append("simulate")
with contextlib.redirect_stdout(io.StringIO()):
    code = cqmeans.cli.main(["simulate", "--source", "uniform", "--lo", "-1", "--hi", "2",
                             "--estimator", "mobius", "--alpha", "0,1", "--n", "10",
                             "--reps", "1000"])
assert code in (0, 5), code
ran.append("uniform-simulate")
for source in (["--mu", "1", "--sigma", "2"], ["--source", "uniform", "--lo", "1", "--hi", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cqmeans.cli.main(["clt-check", *source, "--estimator", "geometric",
                                 "--alpha", "0,1", "--n", "20", "--reps", "1000",
                                 "--seed", "6"])
    assert code in (0, 5), (source, code)
ran.append("clt-check")
cqmeans.run_experiment(cqmeans.ExperimentConfig(
    source=cqmeans.CauchySource(cqmeans.CauchyParams(0.0, 1.0)), estimator="mobius",
    alpha=1j, n_values=(8,), replications=1000, seed=5))
ran.append("run_experiment")
value, _ = cqmeans.integrate_real_line(lambda x: math.exp(-x * x), 1e-12)
assert abs(value - math.sqrt(math.pi)) < 1e-12, value
ran.append("integrate_real_line")
print(json.dumps(ran))
"""


def test_estimate_and_cauchy_monte_carlo_load_no_scipy(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# header\n1.5\n-2\n\n0.25\n7\n-0.5\n3\n", encoding="utf-8")
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    run = subprocess.run([sys.executable, "-c", _SCRIPT, str(path)], cwd=ROOT,
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": pythonpath})
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["estimate", "harmonic-check", "variance-table", "simulate",
                                      "uniform-simulate", "clt-check", "run_experiment",
                                      "integrate_real_line"]

"""Set-up probe: a fresh interpreter imports cqmeans and serves one request.

``bench.py`` times this process from start to exit; that wall time is
``setup_s``.  The single argument is a JSON object naming the workload, seed,
data directory and scale.  Exit status 0 means the warm-up request passed its
per-request checks.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cqmeans  # noqa: E402,F401  the import is part of what is timed

import workloads  # noqa: E402


def main(spec):
    scale = workloads.Scale(**spec["scale"])
    wl = workloads.build(spec["workload"], spec["seed"], scale, Path(spec["workdir"]))
    cfg, seed = wl.request(0)
    return 1 if cfg.problems(cfg.run(seed), seed) else 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))

"""Benchmark entry point: run one workload, print its metrics, exit.

    python3 perfbench/run.py --workload mc-small-n --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The lines before it repeat each metric with its unit,
the error rate and the provenance; the full record, and with ``--trace 1``
every span, is written under ``.perfbench_work/results/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-small-n", "mc-large-n", "estimate-file"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cqmeans" / "__init__.py").is_file():
        print(f"perfbench: no cqmeans sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    # one BLAS/OpenMP thread, set before numpy loads; set-up probes inherit it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    result, record, path = bench.run(args.workload, args.seed, args.seconds, args.trace)
    details = dict(record["details"])
    shown = {**result["metrics"], **details.pop("ungated", {})}
    for name, metric in shown.items():
        print(f"{name:40s} {metric['value']!r} {metric['unit']}")
    details.pop("latencies_s", None)
    details.pop("reference_s", None)
    for key, value in details.items():
        print(f"  {key}: {value}")
    print(f"  provenance: {json.dumps(record['provenance'])}")
    for reason in record["problems"]:
        print(f"  FAILED CHECK: {reason}")
    print(f"  record: {path.relative_to(SRC.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

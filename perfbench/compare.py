"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files ``run.py`` writes under ``.perfbench_work/results/``.
Records from different machines, toolchains, workloads or trace settings are
refused (exit status 2) instead of compared: their provenance must agree on
every key in ``MACHINE_KEYS``.  Seeds and commits may differ; comparing
commits is the point.
"""

import json
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "workload", "trace")


def compare(base, new):
    """Lines comparing ``new`` against ``base``, or raise ValueError if refused."""
    differ = [f"{key} ({base['provenance'].get(key)!r} vs {new['provenance'].get(key)!r})"
              for key in MACHINE_KEYS
              if base["provenance"].get(key) != new["provenance"].get(key)]
    if differ:
        raise ValueError("records are not comparable: they differ in " + ", ".join(differ))
    lines = []
    for name, metric in base["metrics"].items():
        old, cur = metric["value"], new["metrics"][name]["value"]
        change = f"{cur / old - 1.0:+.2%}" if old else "n/a"
        lines.append(f"{name:40s} {old!r} -> {cur!r} {metric['unit']} ({change})")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

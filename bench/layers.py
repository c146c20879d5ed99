"""Per-layer timings of the Monte Carlo kernels, written as one JSON record.

    python bench/layers.py --out BENCH_layers.json [--k 30] [--requests 5]
    python bench/layers.py --compare OLD.json NEW.json

Run from anywhere; the script imports the package from the ``src`` of its own
checkout.  For each tile shape the benchmark's Monte Carlo requests run
(rows x n), it records the min of ``--k`` calls, after one warm-up call,
inside ``_buffers.chunk_buffers()`` as ``harness._run_chunk`` holds it:

* ``draw``: ``CauchySource.draw_rows`` of one tile;
* ``row_means``: the exact row sums ``generators._row_means`` of the tile;
* ``geometric_0``, ``geometric_i``, ``mobius_i``: the ``_rows`` kernels of
  ``ShiftedLog(0)``, ``ShiftedLog(1j)`` and ``MobiusReciprocal(1j)``;
* ``two_step``: both stages of the two-step estimator at the pilot shift
  1j (n >= 6 only).

It also records the min of ``--requests`` whole requests for each
configuration of the benchmark's mc-small-n and mc-large-n workloads
(``run_experiment``, and ``harmonic_identity_check`` for harmonic-n7).  All
times are seconds of wall time in this one process.  The record carries the
provenance that decides them: commit, CPU, Python, numpy and its SIMD
dispatch, and a SHA-256 of ``src/cqmeans/*.py``.

``--compare`` prints the NEW / OLD ratio of every layer and request.  It
refuses records taken on different CPUs, numpy versions or dispatch levels,
whose times do not compare.  The script gates nothing.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cqmeans import _buffers, estimators, harness  # noqa: E402
from cqmeans.cauchy import CauchyParams  # noqa: E402
from cqmeans.generators import MobiusReciprocal, ShiftedLog, _row_means  # noqa: E402

TILES = ((1024, 2), (1024, 3), (1024, 7), (163, 200), (3, 10_000))
# the benchmark's Monte Carlo configurations: estimator, mu, sigma, alpha, n, replications
REQUESTS = {
    "mc-small-n/geometric-n2": ("geometric", 2.0, 3.0, 1 + 2j, 2, 2048),
    "mc-small-n/mobius-n3": ("mobius", 2.0, 3.0, 1 + 2j, 3, 2048),
    "mc-small-n/mobius-n200": ("mobius", 0.0, 1.0, 1j, 200, 2048),
    "mc-small-n/two-step-n200": ("two_step_mobius", 0.0, 1.0, 1j, 200, 2048),
    "mc-small-n/harmonic-n7": ("harmonic", None, None, None, 7, 2048),
    "mc-large-n/geometric-0": ("geometric", 0.0, 1.0, 0j, 10_000, 200),
    "mc-large-n/geometric-i": ("geometric", 0.0, 1.0, 1j, 10_000, 200),
    "mc-large-n/mobius-i": ("mobius", 0.0, 1.0, 1j, 10_000, 200),
}
# a record compares with another only if these provenance fields are equal
SAME_MACHINE = ("cpu_model", "numpy", "simd")


def _min_time(call, k):
    """Min wall time of ``k`` calls of ``call``, after one call to warm up."""
    call()
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def tile_layers(k):
    """{"rowsxn": {layer: seconds}} for every tile shape of ``TILES``."""
    source = harness.CauchySource(CauchyParams(0.0, 1.0))
    out = {}
    for rows, n in TILES:
        rng = np.random.default_rng([rows, n])
        x = source.draw_rows(rng, rows, n).copy()
        kernels = {
            "draw": lambda: source.draw_rows(rng, rows, n),
            "row_means": lambda: _row_means(x),
            "geometric_0": lambda: ShiftedLog(0.0)._rows(x),
            "geometric_i": lambda: ShiftedLog(1j)._rows(x),
            "mobius_i": lambda: MobiusReciprocal(1j)._rows(x),
        }
        if n >= estimators.KINDS[estimators.TWO_STEP_MOBIUS].min_n:
            kernels["two_step"] = lambda: estimators._two_step_rows(x, MobiusReciprocal(1j))
        with _buffers.chunk_buffers():
            out[f"{rows}x{n}"] = {name: _min_time(call, k) for name, call in kernels.items()}
    return out


def requests(count):
    """{"workload/configuration": seconds}, the min of ``count`` whole requests."""
    out = {}
    for key, (kind, mu, sigma, alpha, n, reps) in REQUESTS.items():
        seeds = iter(range(1, count + 2))
        if kind == "harmonic":
            def call():
                harness.harmonic_identity_check(next(seeds), n, reps)
        else:
            def call():
                harness.run_experiment(harness.ExperimentConfig(
                    source=harness.CauchySource(CauchyParams(mu, sigma)), estimator=kind,
                    alpha=alpha, n_values=(n,), replications=reps, seed=next(seeds)))
        out[key] = _min_time(call, count)
    return out


def simd():
    """numpy's SIMD dispatch: the baseline and the dispatched features in use."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {"baseline": list(umath.__cpu_baseline__),
            "found": [f for f in umath.__cpu_dispatch__ if features.get(f)],
            "not_found": [f for f in umath.__cpu_dispatch__ if not features.get(f)]}


def provenance():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = dirty = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
        if commit:  # sources that differ from the commit; source_sha256 names them
            done = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            dirty = bool(done.stdout.strip())
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cqmeans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": simd(),
        "source_sha256": digest.hexdigest(),
    }


def compare(old, new):
    """Lines of NEW / OLD ratios; ValueError if the records do not compare."""
    for field in SAME_MACHINE:
        if old["provenance"][field] != new["provenance"][field]:
            raise ValueError(f"records differ in {field}: {old['provenance'][field]!r} "
                             f"against {new['provenance'][field]!r}")
    lines = []
    for tile, layers in new["tiles"].items():
        for layer, seconds in layers.items():
            before = old["tiles"].get(tile, {}).get(layer)
            if before:
                lines.append(f"{tile:>9} {layer:12} {before * 1e6:10.1f} us "
                             f"{seconds * 1e6:10.1f} us {seconds / before:6.3f}x")
    for key, seconds in new["requests"].items():
        before = old["requests"].get(key)
        if before:
            lines.append(f"{key:34} {before * 1e3:9.3f} ms {seconds * 1e3:9.3f} ms "
                         f"{seconds / before:6.3f}x")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="print the NEW / OLD ratio of every layer and request")
    parser.add_argument("--k", type=int, default=30, help="calls per tile layer (default 30)")
    parser.add_argument("--requests", type=int, default=5,
                        help="calls per Monte Carlo request (default 5)")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        try:
            print("\n".join(compare(old, new)))
        except ValueError as exc:
            print(f"layers: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.out is None or args.k < 1 or args.requests < 1:
        parser.error("give --out PATH (with --k and --requests >= 1) or --compare OLD NEW")
    record = {"provenance": provenance(), "settings": {"k": args.k, "requests": args.requests},
              "tiles": tile_layers(args.k), "requests": requests(args.requests)}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

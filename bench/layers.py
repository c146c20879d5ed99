"""Per-layer timings of the Monte Carlo kernels and the reader, as one JSON record.

    python bench/layers.py --out BENCH_layers.json [--k 30] [--requests 15]
    python bench/layers.py --compare OLD.json NEW.json [--reference NAMES]

Run from anywhere; the script imports the package from the ``src`` of its own
checkout.  For each tile shape the benchmark's Monte Carlo requests run
(rows x n; 327 x 200 is the two-step tile at n = 200), and for 327 x 100,
that tile's halves, it records the min of ``--k`` calls inside
``_buffers.chunk_buffers()``, as ``harness._run_chunks`` holds it, of these
layers:

* ``draw``: ``CauchySource.draw_rows`` of one tile;
* ``row_means``: the exact row sums ``_sums._row_means`` of the tile, summed
  as the kernels sum their terms, in scratch that the sums write over (the
  copy of the tile into it included);
* ``row_means_bounded``: the same sums of the tile's Mobius terms Im 1/(x + i)
  from their bound 1/b, as the Mobius kernel hands them over;
* ``geometric_0``, ``geometric_i``, ``mobius_i``: the ``_rows`` kernels of
  ``ShiftedLog(0)``, ``ShiftedLog(1j)`` and ``MobiusReciprocal(1j)``;
* ``two_step``: both stages of the two-step estimator at the pilot shift
  1j (n >= 6 only).

Under the tile ``2x2048`` it records one more layer, ``ks_statistic``:
``harness._ks_statistic`` of two samples of 2,048 draws, as harmonic-n7's
check compares them.

The ``reader`` layer ``parse`` is the min of ``--k`` calls of
``_decimal.parse`` on 200,000 ``%.17g`` C(-1.4, 1.5) samples with a header
line, laid out as perfbench's estimate-file workload writes its files;
``minflt`` is the minor page faults a call, from ``resource.getrusage``,
which counts this process's own.

It also times ``--requests`` whole requests for each configuration of the
benchmark's mc-small-n and mc-large-n workloads (``run_experiment``, and
``harmonic_identity_check`` for harmonic-n7).  ``requests`` holds each one's
min and ``request_calls`` every call's time, in order.  Layers and requests
are each served round robin, one call of each a round after one round to
warm up, so that a slow phase of the machine spreads over all of them
instead of landing in one.  All times are seconds of wall time in this one
process.  The record carries the provenance that decides them: commit, CPU,
Python, numpy and its SIMD dispatch, and a SHA-256 of ``src/cqmeans/*.py``.

``--compare`` prints the NEW / OLD ratio of every layer and request (with
the reader's faults beside its ratio), for requests of the mins and, where
both records keep the calls, of the medians.  It refuses records taken on
different CPUs, numpy versions or dispatch levels, whose times do not
compare.  The ``draw`` layer runs the same code on both sides, so where its
ratio leaves [0.9, 1.1] on any tile a last line flags the pair as a phase of
the machine, not a result, and gives each tile's draw ratio.  Requests drift
on their own as well, so ``--reference NAMES`` (comma-separated request keys
or workload names, such as ``mc-large-n``) names requests the change leaves
alone: each request's median ratio is then also given divided by the median
of theirs.  The script gates nothing.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cqmeans import _buffers, _decimal, estimators, harness  # noqa: E402
from cqmeans._sums import _row_means  # noqa: E402
from cqmeans.cauchy import CauchyParams  # noqa: E402
from cqmeans.generators import MobiusReciprocal, ShiftedLog  # noqa: E402

TILES = ((1024, 2), (1024, 3), (1024, 7), (327, 100), (163, 200), (327, 200),
         (3, 10_000))
KS_SAMPLES = 2048  # a side, as the harmonic-n7 request compares them
READER_LINES = 200_000  # samples in each of the estimate-file workload's files
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


def _round_robin(calls, rounds):
    """{key: [seconds of each call]}: ``rounds`` rounds of one call of each of
    ``calls``, a {key: call(round)} dict, after one round to warm up."""
    times = {key: [] for key in calls}
    for i in range(rounds + 1):
        for key, call in calls.items():
            start = time.perf_counter()
            call(i + 1)
            if i:
                times[key].append(time.perf_counter() - start)
    return times


def _tile_kernels(source, rows, n):
    """{layer: call} on one tile of ``rows`` x ``n`` Cauchy draws."""
    rng = np.random.default_rng([rows, n])
    x = source.draw_rows(rng, rows, n).copy()
    im_terms = (1.0 / (x + 1j)).imag
    scratch = np.empty_like(x)

    def in_scratch(values, bound=None):
        np.copyto(scratch, values)
        return _row_means(scratch, bound)

    kernels = {
        "draw": lambda _: source.draw_rows(rng, rows, n),
        "row_means": lambda _: in_scratch(x),
        "row_means_bounded": lambda _: in_scratch(im_terms, 1.0 + 2.0**-49),
        "geometric_0": lambda _: ShiftedLog(0.0)._rows(x),
        "geometric_i": lambda _: ShiftedLog(1j)._rows(x),
        "mobius_i": lambda _: MobiusReciprocal(1j)._rows(x),
    }
    if n >= estimators.KINDS[estimators.TWO_STEP_MOBIUS].min_n:
        kernels["two_step"] = lambda _: estimators._two_step_rows(x, MobiusReciprocal(1j))
    return kernels


def tile_layers(k):
    """{"rowsxn": {layer: seconds}}, the min of ``k`` rounds over every tile's layers."""
    source = harness.CauchySource(CauchyParams(0.0, 1.0))
    calls = {(f"{rows}x{n}", layer): call for rows, n in TILES
             for layer, call in _tile_kernels(source, rows, n).items()}
    samples = source.draw_rows(np.random.default_rng(KS_SAMPLES), 2, KS_SAMPLES).copy()
    calls[f"2x{KS_SAMPLES}", "ks_statistic"] = lambda _: harness._ks_statistic(*samples)
    with _buffers.chunk_buffers():
        times = _round_robin(calls, k)
    out = {}
    for (tile, layer), seconds in times.items():
        out.setdefault(tile, {})[layer] = min(seconds)
    return out


def reader_layer(k):
    """{"parse": seconds, "minflt": faults a call}: the min of ``k`` calls of
    ``_decimal.parse`` on the estimate-file workload's layout, and the faults of
    those and of ``_round_robin``'s warm-up call, all after a first call."""
    mu, sigma = -1.4, 1.5
    x = mu + sigma * np.random.default_rng(READER_LINES).standard_cauchy(READER_LINES)
    text = io.BytesIO()
    np.savetxt(text, x, fmt="%.17g", header=f"C({mu!r}, {sigma!r}) sample, {READER_LINES} lines")
    data = text.getvalue()
    _decimal.parse(data)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    times = _round_robin({"parse": lambda _: _decimal.parse(data)}, k)["parse"]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"parse": min(times), "minflt": faults / (k + 1)}


def _request(kind, mu, sigma, alpha, n, reps):
    """A call that serves one whole request of a configuration, at the given seed."""
    if kind == "harmonic":
        return lambda seed: harness.harmonic_identity_check(seed, n, reps)
    return lambda seed: harness.run_experiment(harness.ExperimentConfig(
        source=harness.CauchySource(CauchyParams(mu, sigma)), estimator=kind,
        alpha=alpha, n_values=(n,), replications=reps, seed=seed))


def requests(count):
    """{"workload/configuration": [seconds of each call]}: ``count`` rounds of one
    request of every configuration, seeds 1 to count + 1, the first to warm up."""
    return _round_robin({key: _request(*config) for key, config in REQUESTS.items()}, count)


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


def _named(key, names):
    """Whether request ``key`` is one of ``names`` or in one of their workloads."""
    return any(key == name or key.startswith(name + "/") for name in names)


def compare(old, new, reference=()):
    """Lines of NEW / OLD ratios; ValueError if the records do not compare.

    With ``reference`` names, each request's median ratio is also given
    divided by the median of the median ratios of the requests named.
    """
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
    before, after = old.get("reader"), new.get("reader")
    if before and after:
        lines.append(f"{'reader':>9} {'parse':12} {before['parse'] * 1e6:10.1f} us "
                     f"{after['parse'] * 1e6:10.1f} us {after['parse'] / before['parse']:6.3f}x"
                     f"  minor faults {before['minflt']:.0f} -> {after['minflt']:.0f}")
    medians = {}
    for key in new["requests"]:
        calls = [record.get("request_calls", {}).get(key) for record in (old, new)]
        if all(calls):
            medians[key] = np.median(calls[1]) / np.median(calls[0])
    scale = None
    if reference:
        ratios = [ratio for key, ratio in medians.items() if _named(key, reference)]
        if not ratios:
            raise ValueError(f"no request with median ratios in both records is named by "
                             f"--reference {','.join(reference)}")
        scale = float(np.median(ratios))
        lines.append(f"reference {','.join(reference)}: median ratio {scale:.3f}x")
    for key, seconds in new["requests"].items():
        before = old["requests"].get(key)
        if before:
            line = (f"{key:34} {before * 1e3:9.3f} ms {seconds * 1e3:9.3f} ms "
                    f"{seconds / before:6.3f}x")
            if key in medians:
                line += f"  median {medians[key]:6.3f}x"
                if scale:
                    line += f"  by reference {medians[key] / scale:6.3f}x"
            lines.append(line)
    draws = {tile: layers["draw"] / old["tiles"][tile]["draw"]
             for tile, layers in new["tiles"].items() if "draw" in old["tiles"].get(tile, {})}
    if any(not 0.9 <= ratio <= 1.1 for ratio in draws.values()):
        lines.append("machine phase, not a result: the unchanged draw layer reads "
                     + ", ".join(f"{tile} {ratio:.3f}x" for tile, ratio in draws.items()))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="print the NEW / OLD ratio of every layer and request")
    parser.add_argument("--reference", type=lambda text: tuple(filter(None, text.split(","))),
                        default=(), metavar="NAMES",
                        help="with --compare: divide the requests' median ratios by the median "
                             "of these requests' (comma-separated keys or workloads)")
    parser.add_argument("--k", type=int, default=30, help="rounds of tile layers (default 30)")
    parser.add_argument("--requests", type=int, default=15,
                        help="rounds of Monte Carlo requests (default 15)")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        try:
            print("\n".join(compare(old, new, args.reference)))
        except ValueError as exc:
            print(f"layers: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.out is None or args.k < 1 or args.requests < 1:
        parser.error("give --out PATH (with --k and --requests >= 1) or --compare OLD NEW")
    calls = requests(args.requests)
    record = {"provenance": provenance(), "settings": {"k": args.k, "requests": args.requests},
              "tiles": tile_layers(args.k), "reader": reader_layer(args.k),
              "requests": {key: min(times) for key, times in calls.items()},
              "request_calls": calls}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

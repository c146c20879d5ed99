"""Run one benchmark workload and report its metrics (see README.md).

With tracing off the run measures the end-to-end metrics: set-up time of a
fresh interpreter, then a closed loop of requests from one client for at
least ``seconds`` seconds, stopping at the end of a whole cycle.  With tracing
on it serves a fixed list of requests twice, untraced and then traced, and
reports per-layer counts and times from the traced pass.
"""

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
_PROBE_TIMEOUT_S = 150
# candidate tail percentiles; the tail is the highest with >= 10 requests beyond it
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_max_ref": "ref",
    "samples_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "harness.seeding.calls": "count",
    "harness.seeding.busy_s": "s",
    "harness.run_experiment.busy_s": "s",
    "harness.harmonic_identity_check.busy_s": "s",
    "harness.clt_diagnostics.busy_s": "s",
    "harness.theoretical_targets.busy_s": "s",
    "harness.self_s": "s",
    "harness.resampled_reps": "count",
    "harness.useful_ratio": "ratio",
    "cauchy.draw.calls": "count",
    "cauchy.draw.samples": "count",
    "cauchy.draw.busy_s": "s",
    "cauchy.quadrature.busy_s": "s",
    "estimators.calls": "count",
    "estimators.busy_s": "s",
    "estimators.self_s": "s",
    "generators.qam.calls": "count",
    "generators.qam.busy_s": "s",
    "generators.qam.self_s": "s",
    "generators.apply.busy_s": "s",
    "generators.invert.busy_s": "s",
    "branch.branch_log.calls": "count",
    "branch.branch_log.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
}


def provenance(workload, seed, trace):
    """Machine, toolchain and source identity; results only compare when equal."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cqmeans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
    }


_REF_X = np.linspace(0.0, 1.0, 20_000)


def _reference_s():
    """Wall time of a fixed loop of interpreter and numpy work, about 4 ms.

    Other tenants of a shared machine slow its CPU by up to 2x, in phases that
    last from half a second to minutes, and a slow phase stretches CPU time
    as much as wall time.  The slowdown scales this loop and the program
    alike, so a serve divided by this loop's time taken in the same run holds
    steady where the serve's own time does not.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(6):
        np.sort(np.sin(_REF_X))
    return time.perf_counter() - start


def _serve(cfg, seed):
    """One request; an exception becomes the outcome and fails its checks."""
    start = time.perf_counter()
    try:
        outcome = cfg.run(seed)
    except Exception:  # the loop must keep serving and count the failure
        outcome = _Failure(traceback.format_exc(limit=3))
    return time.perf_counter() - start, outcome


class _Failure:
    def __init__(self, text):
        self.text = text


def _text(cfg, outcome):
    return outcome.text if isinstance(outcome, _Failure) else cfg.text(outcome)


def _check(served):
    """Indices of failed requests and the reasons, per request and pooled."""
    failed, reasons = set(), []
    by_key = {}
    for i, cfg, seed, _, outcome in served:
        if isinstance(outcome, _Failure):
            failed.add(i)
            reasons.append(f"request {i} ({cfg.key}) raised: {outcome.text}")
            continue
        problems = cfg.problems(outcome, seed)
        if problems:
            failed.add(i)
            reasons.extend(problems)
        by_key.setdefault(cfg.key, (cfg, []))[1].append((i, outcome))
    for cfg, group in by_key.values():
        problems = cfg.pooled_problems([outcome for _, outcome in group])
        if problems:
            failed.update(i for i, _ in group)
            reasons.extend(problems)
    return failed, reasons


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, _percentile(ordered, p)
    return 100.0, ordered[-1]


def _setup_times(wl, scale, data_dir):
    """Wall time of fresh interpreters that import cqmeans and serve request 0."""
    spec = json.dumps({"workload": wl.name, "seed": wl.seed, "workdir": str(data_dir),
                       "scale": dataclasses.asdict(scale)})
    times, failures = [], []
    for _ in range(scale.setup_probes):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(PROBE), spec], capture_output=True,
                              text=True, timeout=_PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            failures.append(f"set-up probe exit {done.returncode}: {done.stderr[-400:]}")
    return times, failures


def _untraced(wl, scale, seconds, data_dir):
    setup, setup_failures = _setup_times(wl, scale, data_dir)
    _serve(*wl.request(0))  # warm-up: lazy imports and caches settle before timing
    cycle = len(wl.cycle)
    served, reference = [], []
    start = time.perf_counter()
    while True:
        i = len(served)
        cfg, seed = wl.request(i)
        reference.append(_reference_s())
        served.append((i, cfg, seed, *_serve(cfg, seed)))
        if (len(served) % cycle == 0 and len(served) // cycle >= wl.min_cycles
                and time.perf_counter() - start >= seconds):
            break
    timed_s = time.perf_counter() - start
    reference.append(_reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # re-issue the first request after the run: its report must be byte-identical
    first = served[0]
    _, again = _serve(first[1], first[2])
    reissue_ok = _text(first[1], again) == _text(first[1], first[4])

    failed, reasons = _check(served)
    reasons = setup_failures + reasons
    if not reissue_ok:
        reasons.append(f"re-issued request 0 ({first[1].key}) gave a different report")
    attempted = len(served) + 1 + len(setup)
    failures = len(failed) + (not reissue_ok) + len(setup_failures)

    # Single serves wander with the machine's slow phases.  The gated
    # latencies divide each serve by the mean of the reference loops timed
    # just before and after it, and take each configuration's median ratio.
    ratios = {}
    for i, cfg, _, latency, _ in served:
        ratios.setdefault(cfg, []).append(2.0 * latency / (reference[i] + reference[i + 1]))
    cost = {cfg: statistics.median(r) for cfg, r in ratios.items()}
    latencies = [s[3] for s in served]
    tail_p, tail = _tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ref": statistics.median(cost.values()),
        "latency_max_ref": max(cost.values()),
        "samples_per_ref": sum(c.samples for c in cost) / sum(cost.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    # printed but not gated: the error rate is 0 when the program is right,
    # and the times in ms move with the machine's phases
    ungated = {
        "error_rate": (failures / attempted, "ratio"),
        "latency_p50_ms": (1e3 * _percentile(sorted(latencies), 50.0), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "samples_per_s": (sum(s[1].samples for s in served) / timed_s, "1/s"),
        "reference_ms": (1e3 * statistics.median(reference), "ms"),
    }
    details = {
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()},
        "latency_tail_percentile": tail_p,
        "requests": len(served),
        "cycles": len(served) // cycle,
        "timed_s": timed_s,
        "samples_per_request": sorted({c.samples for c in wl.cycle}),
        "setup_samples_s": setup,
        "latency_ref": {c.key: r for c, r in cost.items()},
        "latencies_s": [[s[1].key, s[3]] for s in served],
        "reference_s": reference,
    }
    return attempted, failures, metrics, details, reasons


def _traced(wl, spans_path):
    _serve(*wl.request(0))  # warm-up, as in the untraced run
    cycle = len(wl.cycle)
    requests = [wl.request(i) for i in range(wl.min_cycles * cycle)]
    tracer = Tracer()
    plain, traced = [None] * len(requests), [None] * len(requests)
    plain_s = traced_s = 0.0
    # untraced and traced passes alternate cycle by cycle, in ABBA order, so
    # drift in machine speed cancels out of the overhead ratio
    for c in range(wl.min_cycles):
        block = range(c * cycle, (c + 1) * cycle)
        for traced_pass in ((False, True) if c % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced_pass:
                with tracer.patched():
                    for i in block:
                        tracer.request = i
                        traced[i] = _serve(*requests[i])[1]
                traced_s += time.perf_counter() - start
            else:
                for i in block:
                    plain[i] = _serve(*requests[i])[1]
                plain_s += time.perf_counter() - start
    tracer.write(spans_path)

    served = [(i, cfg, seed, 0.0, out) for i, ((cfg, seed), out) in enumerate(zip(requests, plain))]
    failed, reasons = _check(served)
    for i, ((cfg, _), a, b) in enumerate(zip(requests, plain, traced)):
        if _text(cfg, a) != _text(cfg, b):
            failed.add(i)
            reasons.append(f"request {i} ({cfg.key}): traced report differs from untraced")

    reports = [out for (cfg, _), out in zip(requests, plain)
               if isinstance(cfg, workloads.McConfig) and not isinstance(out, _Failure)]
    replications = sum(r.replications * len(r.n_values) for r in reports)
    resampled = sum(res.failed_replications for r in reports for res in r.results)
    metrics = layer_metrics(tracer.spans, traced_s)
    metrics["harness.resampled_reps"] = resampled
    # no replication at all (the file workload) wastes nothing
    metrics["harness.useful_ratio"] = (replications / (replications + resampled)
                                       if replications + resampled else 1.0)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    details = {"requests": len(requests), "untraced_s": plain_s, "traced_s": traced_s,
               "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return len(requests), len(failed), metrics, details, reasons


def run(workload, seed, seconds, trace, scale=workloads.Scale(), work=WORK):
    """Run one workload; return the result line and the full record."""
    results = work / "results"
    data_dir = work / f"data-{workload}-{seed}"
    results.mkdir(parents=True, exist_ok=True)
    data_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, scale, data_dir)
    try:
        wl.prepare()
        if trace:
            # one spans file per workload, the latest traced run's, bounds the disk use
            spans_path = results / f"{workload}-spans.csv.gz"
            attempted, failed, metrics, details, reasons = _traced(wl, spans_path)
        else:
            attempted, failed, metrics, details, reasons = _untraced(wl, scale, seconds, data_dir)
    finally:
        shutil.rmtree(data_dir)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, provenance=provenance(workload, seed, trace),
                  details=details, problems=reasons)
    record_path = results / f"{workload}-seed{seed}-trace{int(bool(trace))}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result, record, record_path

"""Self-tests of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

They check that every workload runs and reports every metric named in
BENCHMARK.json, that the tracer puts back every attribute it rebinds, that
per-span self times add up to no more than the traced wall time, that the
exact counts repeat for a repeated seed, and that records from different
machines are refused for comparison.
"""

import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

TINY = workloads.Scale(mc_reps=100, large_n=500, large_reps=100, file_samples=2000,
                       setup_probes=1, min_cycles=1)
EXACT_COUNTS = ("harness.seeding.calls", "cauchy.draw.samples", "estimators.calls",
                "generators.qam.calls", "harness.resampled_reps")


def _work_dir():
    # the benchmark writes only inside the checkout, and so do its tests
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest-")


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        units = {trace: {m["name"]: m["unit"] for m in spec[key]}
                 for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
        with _work_dir() as tmp:
            for name in workloads.WORKLOADS:
                for trace in (0, 1):
                    with self.subTest(workload=name, trace=trace):
                        result, record, _ = bench.run(name, 3, 0.01, trace, TINY, Path(tmp))
                        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, units[trace])
                        self.assertGreaterEqual(result["attempted"], 1)
                        # tiny sizes are too small for the statistical checks,
                        # but no request may raise or change on repetition
                        broken = [p for p in record["problems"]
                                  if "raised" in p or "differ" in p or "probe" in p]
                        self.assertEqual(broken, [])
                        self.assertEqual(record["provenance"]["trace"], bool(trace))


class TracerTest(unittest.TestCase):
    def test_restores_every_rebound_attribute(self):
        from cqmeans import cauchy, cli, estimators, generators, harness
        owners = (cauchy, cli, estimators, generators, harness,
                  generators.ShiftedLog, generators.MobiusReciprocal)
        before = [dict(vars(owner)) for owner in owners]

        def changed():
            return [(owner, key) for owner, old in zip(owners, before)
                    for key in set(old) | set(vars(owner))
                    if vars(owner).get(key, old) is not old.get(key, vars(owner))
                    or (key in old) != (key in vars(owner))]

        with self.assertRaises(RuntimeError):
            with Tracer().patched():
                self.assertGreaterEqual(len(changed()), 20)
                raise RuntimeError("the run fails; the rebinding must still be undone")
        self.assertEqual(changed(), [])

    def test_self_times_sum_to_at_most_traced_wall_time(self):
        with _work_dir() as tmp:
            for name in ("mc-small-n", "estimate-file"):
                wl = workloads.build(name, 4, TINY, Path(tmp))
                wl.prepare()
                tracer = Tracer()
                start = time.perf_counter()
                with tracer.patched():
                    for i in range(len(wl.cycle)):
                        tracer.request = i
                        wl.request(i)[0].run(wl.request(i)[1])
                wall = time.perf_counter() - start
                own = self_times(tracer.spans)
                self.assertGreater(len(own), 0)
                self.assertGreaterEqual(min(own), 0.0)
                self.assertLessEqual(sum(own), wall)
                metrics = layer_metrics(tracer.spans, wall)
                layer_self = (metrics["harness.self_s"] + metrics["harness.seeding.busy_s"]
                              + metrics["cauchy.draw.busy_s"] + metrics["estimators.self_s"]
                              + metrics["generators.qam.self_s"] + metrics["cli.self_s"])
                self.assertLessEqual(layer_self, wall)

    def test_exact_counts_repeat_for_a_repeated_seed(self):
        with _work_dir() as tmp:
            runs = [bench.run("mc-small-n", 7, 0.01, 1, TINY, Path(tmp))[0]["metrics"]
                    for _ in range(2)]
        for name in EXACT_COUNTS:
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)
        self.assertGreater(runs[0]["estimators.calls"]["value"], 0)


class CompareTest(unittest.TestCase):
    def test_refuses_records_from_another_machine(self):
        record = {"provenance": {"nproc": 2, "cpu_model": "a", "python": "3.11.7",
                                 "numpy": "2", "scipy": "1", "workload": "w", "trace": False},
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        other = json.loads(json.dumps(record))
        other["metrics"]["setup_s"]["value"] = 1.5
        self.assertIn("+50.00%", compare.compare(record, other)[0])
        other["provenance"]["nproc"] = 8
        with self.assertRaises(ValueError):
            compare.compare(record, other)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

For each workload it makes short fixed-seed runs through run.py and
asserts that every metric BENCHMARK.json names is printed with its unit,
that no operation failed (error_ratio is 0), that the per-op transform
counts repeat exactly across two traced runs, and that the self-time
rows sum to the op wall time. It also checks that compare.py refuses
records from different core counts.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "2"
# Counts fixed by the seed alone (taken over one pass of the inputs).
DETERMINISTIC = [
    "transform.plans_ok", "transform.locks_inserted", "transform.delayed",
    "transform.reordered", "transform.dps", "transform.rec2iter",
    "transform.generated_cells",
]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json"
                           % (workload, SEED, trace))) as f:
        record = json.load(f)
    return result, record


class WorkloadTest(unittest.TestCase):
    def check(self, workload):
        plain, _ = run(workload, 0)
        self.assertEqual(set(plain), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(plain["correct"])
        self.assertEqual(plain["failed"], 0)
        self.assertEqual(
            {n: m["unit"] for n, m in plain["metrics"].items()},
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        for m in plain["metrics"].values():
            self.assertGreater(m["value"], 0)

        first, rec1 = run(workload, 1)
        second, _ = run(workload, 1)
        for r in (first, second):
            self.assertTrue(r["correct"])
            self.assertEqual(
                {n: m["unit"] for n, m in r["metrics"].items()},
                {m["name"]: m["unit"] for m in SPEC["per_layer"]})
            self.assertEqual(r["metrics"]["error_ratio"]["value"], 0)
        for name in DETERMINISTIC:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)

        rows = rec1["self_time"]
        self.assertTrue(any(r["unattributed"] for r in rows))
        total = sum(r["ms_per_op"] for r in rows)
        self.assertAlmostEqual(total, rec1["op_wall_ms_per_op"],
                               delta=1e-6 * max(1.0, total))
        trace_file = os.path.join(ROOT, ".bench_out",
                                  "%s-seed%d.trace.json" % (workload, SEED))
        with open(trace_file) as f:
            self.assertTrue(json.load(f)["traceEvents"])
        return first

    def test_cri_runs(self):
        layer = self.check("cri_runs")["metrics"]
        self.assertGreater(layer["runtime.utilization"]["value"], 0)

    def test_serve_mix(self):
        layer = self.check("serve_mix")["metrics"]
        self.assertGreater(layer["serve.eval_ms"]["value"], 0)

    def test_restructure_corpus(self):
        layer = self.check("restructure_corpus")["metrics"]
        self.assertGreater(layer["transform.plans_ok"]["value"], 0)


class CompareTest(unittest.TestCase):
    def test_refuses_different_core_counts(self):
        record = {"workload": "cri_runs", "trace": 0, "host": {"nproc": 4},
                  "end_to_end": {}, "per_layer": {}}
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            paths = []
            for cores in (1, 4):
                record["host"]["nproc"] = cores
                path = os.path.join(tmp, "r%d-trace0.json" % cores)
                with open(path, "w") as f:
                    json.dump(record, f)
                paths.append(path)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py")] + paths,
                capture_output=True, text=True)
        self.assertEqual(out.returncode, 2, out.stderr)
        self.assertIn("refusing", out.stderr)


if __name__ == "__main__":
    unittest.main()

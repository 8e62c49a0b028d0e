"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

They check that a seed fixes the task list, that a tiny run of every
workload prints every metric that BENCHMARK.json names, and that a
deliberately corrupted output is counted as a failed task.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TaskLists(unittest.TestCase):
    def test_same_seed_same_tasks(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                a = workloads.make_tasks(w, 7, 15)
                self.assertEqual(a, workloads.make_tasks(w, 7, 15))
                self.assertNotEqual(a, workloads.make_tasks(w, 8, 15))

    def test_full_runs_have_enough_tasks_for_p90(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                n = len(workloads.make_tasks(w, 1, SPEC["run_seconds"]))
                self.assertGreaterEqual(n, 100)

    def test_sums_keeps_the_p257_request(self):
        tasks = workloads.make_tasks("sums", 3, 1)
        self.assertEqual(sum(t["r"] == 257 and t["j"] == 600 for t in tasks), 1)


class TinyRuns(unittest.TestCase):
    def _last_line(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=HERE.parent)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted(self):
        for w in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    last = self._last_line(w, trace)
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in last["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


class Corruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ffz = run.import_package()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _run(self, tasks, mangle):
        ctx = workloads.Context(self.ffz, self.tmp.name)
        return run.run_tasks(ctx, tasks, time.perf_counter() + 120,
                             mangle=mangle)

    def test_corrupted_output_is_a_failed_task(self):
        tasks = [t for t in workloads.make_tasks("modules", 1, 1)
                 if t["kind"] == "frobenius"]
        victim = tasks[0]["id"]

        def mangle(task, outcome):
            code, text = outcome
            if task["id"] != victim:
                return outcome
            doc = json.loads(text)
            doc["result"]["verified"] = False
            return code, json.dumps(doc)

        latencies, failures = self._run(tasks, mangle)
        self.assertEqual(len(latencies), len(tasks))
        self.assertEqual([f["task"] for f in failures], [victim])
        self.assertTrue(failures[0]["output_wrong"])

    def test_corrupted_power_sum_is_a_failed_task(self):
        tasks = [t for t in workloads.make_tasks("sums", 1, 1)
                 if t["r"] == 2 and t["cold"]][:1]

        def mangle(task, outcome):
            code, text = outcome
            doc = json.loads(text)
            digits = doc["result"]["coefficients"][1]["digits"]
            digits[0] = "1" if digits[0] == "0" else "0"
            return code, json.dumps(doc)

        _, failures = self._run(tasks, mangle)
        self.assertEqual(len(failures), 1)
        self.assertIn("enumeration oracle", failures[0]["reason"])


class Tracing(unittest.TestCase):
    def test_a_vanished_name_is_absent_not_a_crash(self):
        import spans
        run.import_package()
        tracer = spans.Tracer()
        saved = dict(spans.WRAPPED)
        spans.WRAPPED["packing.f2_to_coeffs"] = ("_packing", "no_such_function")
        try:
            tracer.install()
        finally:
            spans.WRAPPED.clear()
            spans.WRAPPED.update(saved)
        self.assertIn("packing.f2_to_coeffs", tracer.absent)
        metrics = spans.per_layer_metrics(tracer, 0, 0.0)
        value, _, reason = metrics["packing.f2_to_coeffs.self_s"]
        self.assertEqual(value, 0)
        self.assertIn("absent", reason)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (Release) if it is not built yet.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

DEFAULT_SEED = 1
HELD_OUT_SEED = 977  # never used while the workloads were written or tuned


class DecoratorTest(unittest.TestCase):
    """The tracing decorators must not change what the program does."""

    def test_traced_and_untraced_rounds_agree(self):
        binary = run.build()
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            with self.subTest(seed=seed):
                result = subprocess.run([binary, "--selftest", "--seed", str(seed)],
                                        capture_output=True, text=True, timeout=300)
                self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
                lines = result.stdout.split("\n")
                for workload in ("make", "pageout_scan", "hot_access"):
                    self.assertTrue(any(l.split() == [workload, "ok"] for l in lines),
                                    result.stdout)


class OutputCheckTest(unittest.TestCase):
    """Every workload passes its output checks on the default and a held-out seed."""

    def run_workload(self, workload, seed, trace):
        result = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stderr)
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_workloads_are_correct(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        # hot_access and fault_storm are built and checked but not in
        # BENCHMARK.json (see README.md).
        for workload in [w["name"] for w in spec["workloads"]] + ["hot_access", "fault_storm"]:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    result = self.run_workload(workload, seed, trace=0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)

    def test_traced_run_reports_every_layer(self):
        result = self.run_workload("pageout_scan", DEFAULT_SEED, trace=1)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual(metrics["trace.counters_match"]["value"], 1)
        self.assertEqual(metrics["trace.spans_dropped"]["value"], 0)
        for name in ("hal.mmu_self_us", "pvm.fault_self_us", "nucleus.mapper_write_us",
                     "pvm.push_outs_per_op", "trace.overhead_ratio"):
            self.assertGreater(metrics[name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()

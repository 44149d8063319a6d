#!/usr/bin/env python3
"""Tests of the benchmark itself, on its smoke inputs.

    python3 perfbench/test_run.py

Every workload runs once untraced and once traced with --smoke (a tiny input per
workload, one pass): each must print a correct result whose metric names and units
are exactly those BENCHMARK.json lists. A copy of the benchmark without the
repository's sources must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, trace, catalog):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run_smoke(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in SPEC[catalog]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    # End-to-end metrics are never 0 (per-layer ones are 0 on
                    # workloads that do not reach the layer).
                    if catalog == "end_to_end":
                        self.assertGreater(m["value"], 0, name)
                    # Every metric is also printed by name with its unit.
                    self.assertIn(name, proc.stdout)

    def test_untraced_runs_emit_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_runs_emit_per_layer_metrics(self):
        self.check(1, "per_layer")


class IsolationTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-sweep", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the host-time benchmark, run in its reduced-size smoke mode.

    python3 hostbench/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that a tampered pinned value makes the run count as failed,
and that the benchmark refuses to run without the simulator's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", "test")


def run_bench(workload, trace, *extra):
    return subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)


def last_json(r):
    return json.loads(r.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        os.makedirs(SCRATCH, exist_ok=True)

    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in wanted}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], float, name)

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = run_bench(workload, trace)
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                    self.check_metrics(last_json(r), self.spec[key])
                    if key == "end_to_end":
                        for m in self.spec[key]:
                            self.assertGreater(last_json(r)["metrics"][m["name"]]["value"], 0)

    def test_tampered_pin_counts_as_failed(self):
        with open(os.path.join(HERE, "pinned.json")) as f:
            pins = json.load(f)
        pins["apps"]["Process FP"]["flukeperf"][1] += 1  # one context switch
        pins["mp_digest"]["smoke"][0] = "0" * 16
        path = os.path.join(SCRATCH, "tampered-pins.json")
        with open(path, "w") as f:
            json.dump(pins, f)
        for workload in ("apps", "mp"):
            with self.subTest(workload=workload):
                r = run_bench(workload, 0, "--pins", path)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = last_json(r)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])
                self.assertIn("pinned", r.stderr)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        r = subprocess.run([sys.executable, "hostbench/run.py", "--workload", "c1m", "--seed",
                            "1", "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, cwd=bare, env=env, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

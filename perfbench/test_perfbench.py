#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at tiny sizes (each run
well under a second once built):

    python3 perfbench/test_perfbench.py

For every workload: the result line's schema, the metric names and
units against BENCHMARK.json, every correctness check, digests that
repeat for a fixed seed, and a loadable Chrome-trace span file from
the traced run. Also checks that bad arguments fail without a result.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step and binary path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def drive(*args):
    """Run the built binary; returns (exit code, stdout lines)."""
    done = subprocess.run([run.BINARY, *args], capture_output=True,
                          text=True, timeout=120)
    return done.returncode, done.stdout.strip().splitlines()


def tiny(workload, seed, trace, *extra):
    code, lines = drive("--workload", workload, "--seed", str(seed),
                        "--seconds", "0.2", "--trace", str(trace),
                        "--size", "tiny", *extra)
    assert code == 0, lines
    return lines


def result(lines):
    return json.loads(lines[-1])


def digest(lines):
    return [l for l in lines if l.startswith("digest ")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_result(self, res, spec_metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for value in res["metrics"].values():
            self.assertEqual(set(value), {"value", "unit"})
            self.assertTrue(math.isfinite(value["value"]))

    def test_untraced_runs_check_out_and_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = tiny(workload, 7, 0)
                self.check_result(result(first), SPEC["end_to_end"])
                for metric in result(first)["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)
                self.assertFalse(any(l.startswith("check FAIL")
                                     for l in first))
                self.assertTrue(any(l.startswith("meta {") for l in first))
                again = tiny(workload, 7, 0)
                self.assertEqual(len(digest(first)), 1)
                self.assertEqual(digest(first), digest(again))

    def test_traced_run_reports_layers_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "spans.json")
                lines = tiny(workload, 3, 1, "--spans", path)
                self.check_result(result(lines), SPEC["per_layer"])
                self.assertEqual(digest(lines), digest(tiny(workload, 3, 0)))
                with open(path) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertGreater(len(events), 2)
                for i, event in enumerate(events):
                    self.assertEqual(event["ph"], "X")
                    self.assertGreaterEqual(event["dur"], 0.0)
                    self.assertLess(event["args"]["parent"], i)
                self.assertEqual(events[0]["name"], "workload")

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "serve", "--seed", "-1"],
                     ["--workload", "serve", "--trace", "2"],
                     ["--workload"]):
            with self.subTest(args=args):
                code, lines = drive(*args)
                self.assertNotEqual(code, 0)
                self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()

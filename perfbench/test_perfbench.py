#!/usr/bin/env python3
"""The benchmark's own tests: accounting invariants, the metric catalogue
against BENCHMARK.json, load-generator limits, the open-loop honesty check
and the refusal to run from an incomplete checkout.

Run from the checkout root (builds qbench on first use):
  python3 -m unittest perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pair-large", "corpus-search", "served-mix")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    """Runs the benchmark command of BENCHMARK.json with extra arguments."""
    command = [sys.executable, os.path.join(ROOT, SPEC["command"][1])] + SPEC["command"][2:]
    return subprocess.run(command + list(args), cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def parse(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reports = [json.loads(l[len("report "):]) for l in lines if l.startswith("report ")]
    return result, reports


def balanced(acc):
    return acc["attempted"] == acc["ok"] + acc["wrong"] + sum(acc["typed"].values())


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = SPEC
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                out = run("--workload", workload, "--seed", "7", "--seconds", "2",
                          "--trace", trace)
                cls.runs[(workload, trace)] = out

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_every_run_is_correct_and_prints_the_catalogue(self):
        expected = {
            "0": {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        for (workload, trace), out in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result, _ = parse(out.stdout)
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, expected[trace])
                if trace == "0":
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_accounting_invariants(self):
        for (workload, trace), out in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                result, reports = parse(out.stdout)
                self.assertEqual(len(reports), 1)
                acc = reports[0]["accounting"]
                self.assertTrue(balanced(acc), acc)
                self.assertEqual(result["attempted"], acc["attempted"])
                self.assertEqual(result["failed"],
                                 acc["wrong"] + sum(acc["typed"].values()))
                for step in reports[0].get("steps", []):
                    self.assertTrue(balanced(step["accounting"]), step)
                    self.assertEqual(step["requests"], step["accounting"]["attempted"])

    def test_load_generators_fit_the_host(self):
        nproc = os.cpu_count() or 1
        for (workload, trace), out in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                _, reports = parse(out.stdout)
                self.assertLessEqual(reports[0]["load_threads"], nproc)
                self.assertLessEqual(reports[0].get("connections", 0), nproc)

    def test_open_loop_charges_a_stall_to_the_requests_behind_it(self):
        out = run("--selftest", "honesty", "--seed", "3")
        self.assertEqual(out.returncode, 0, out.stdout[-2000:] + out.stderr[-2000:])
        verdict = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(verdict["honesty"])
        self.assertEqual(verdict["fires"], 1)
        self.assertGreaterEqual(verdict["max_latency_ms"], 300.0)
        self.assertGreaterEqual(verdict["behind"], 2)
        self.assertEqual(verdict["charged"], verdict["behind"])
        self.assertLess(verdict["lag_mean_ms"], 1.0)

    def test_refuses_an_incomplete_checkout(self):
        scratch = os.path.join(ROOT, ".bench_build", "incomplete-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pair-large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()

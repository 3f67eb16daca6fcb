#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that
  * BENCHMARK.json keeps to its schema;
  * the span self-time arithmetic is right (perfbench --selftest);
  * a reduced-size run of every workload passes its checks and prints
    exactly the end-to-end metric names of BENCHMARK.json;
  * a reduced-size traced run prints exactly the per-layer names, and every
    span it writes has self time = duration - time covered by its children;
  * run.py fails, printing no result, without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.01"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, seed=7, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_benchmark_json_schema(self):
        spec = self.spec
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_span_selftest(self):
        proc = subprocess.run([os.path.join(self.build, "perfbench"),
                               "--selftest"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_reduced_workloads(self):
        want = sorted(m["name"] for m in self.spec["end_to_end"])
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]), want)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run(self):
        proc = bench("single_1m", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        with open(os.path.join(self.build, "spans", "single_1m-seed7.json")) as f:
            spans = json.load(f)
        self.assertGreater(len(spans), 10)
        for i, span in enumerate(spans):
            self.assertLessEqual(span["start"], span["end"])
            children = [s for s in spans if s["parent"] == i]
            # Spans of the traced run are sequential, so children never
            # overlap and the self time is a plain subtraction.
            covered = sum(c["end"] - c["start"] for c in children)
            self.assertAlmostEqual(span["self"],
                                   span["end"] - span["start"] - covered,
                                   places=6)

    def test_fails_without_sources(self):
        bare = os.path.join(self.build, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single_1m",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

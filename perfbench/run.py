#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--scale F]

Run from the root of a checkout.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs only
check that the build is current.  Build output goes to stderr.

The benchmark binary prints human-readable lines and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}.  This script passes its
output through, then checks that the object is well formed and that its
metric names are exactly the ones BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1).  The exit status is
non-zero when the build, the run, a correctness check or that comparison
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("single_1m", "shard_1024")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds both benchmark binaries; returns the dir."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/CMakeLists.txt beside perfbench/: "
                           "run from a checkout of the repository")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=log, stderr=log)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(line, trace):
    """Returns a list of problems with the result line (empty when fine)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "unexpected %s" % (sorted(set(want) - set(got)),
                                           sorted(set(got) - set(want))))
    if not result["correct"]:
        problems.append("a correctness check failed")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier (the benchmark's own tests "
                             "run small)")
    args = parser.parse_args()

    try:
        out = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    exe = os.path.join(out, "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.trace:
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    problems = validate(lines[-1], args.trace)
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: benchmark binary exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

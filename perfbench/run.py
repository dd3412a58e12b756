#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload sim-booking --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The first run configures and builds
the middleware and the benchmark binary (RelWithDebInfo) into
.bench_build/; later runs only rebuild what changed.  Build output goes to
stderr, so the last line of stdout is the binary's JSON result.  The exit
code is the binary's: non-zero when an output check failed; also non-zero
when the result does not list exactly the metrics BENCHMARK.json names or
the build failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dedisys_perfbench")
TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; serialised by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "middleware", "cluster.h")):
        fail(f"no middleware sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    code, lines = run_binary(args)
    if not lines:
        fail(f"benchmark binary printed nothing (exit {code})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON (exit {code}): {lines[-1]}")
    names = list(result.get("metrics", {}))
    want = expected_metrics(args.trace)
    if sorted(names) != sorted(want):
        fail(f"result metrics {sorted(set(names) ^ set(want))} differ from "
             "BENCHMARK.json")
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark on its sim workloads.

    python3 perfbench/selftest.py

Builds the benchmark binary like run.py does, then for each sim workload:
  * runs the traced mode twice with one seed and a fixed op count; the
    op counts and every count-valued per-layer metric (sim_us_per_op
    included) must be identical, and the begin, invoke and commit spans
    must cover at least 90% of the traced op latency;
  * runs both modes with a second seed; every output check must pass.
Prints one line per check and exits non-zero if any check fails.
"""

import json
import subprocess
import sys

import run

SIM_WORKLOADS = {"sim-booking": 3000, "partition-reconcile": 20}
SEEDS = (7, 8)
# Wall-clock metrics differ between runs by nature; everything else is a
# count or a simulated time and must repeat exactly.
WALL_CLOCK = ("trace.overhead_frac", "trace.coverage_frac", "reconcile_ms",
              "runtime.wait_us")


def is_wall_clock(name):
    return name.endswith("_ns") or name in WALL_CLOCK


def run_once(workload, seed, trace, ops):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--ops", str(ops)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    run.build()
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        failures += 0 if ok else 1

    for workload, ops in SIM_WORKLOADS.items():
        first = run_once(workload, SEEDS[0], 1, ops)
        second = run_once(workload, SEEDS[0], 1, ops)
        for key in ("attempted", "failed"):
            check(first[key] == second[key],
                  f"{workload}: {key} repeats for seed {SEEDS[0]} "
                  f"({first[key]} vs {second[key]})")
        differing = [name for name, m in first["metrics"].items()
                     if not is_wall_clock(name)
                     and m["value"] != second["metrics"][name]["value"]]
        check(not differing,
              f"{workload}: per-layer counts repeat for seed {SEEDS[0]}"
              + (f" (differ: {differing})" if differing else ""))
        coverage = first["metrics"]["trace.coverage_frac"]["value"]
        check(coverage >= 0.9,
              f"{workload}: begin, invoke and commit spans cover "
              f"{coverage:.3f} of the traced op latency (>= 0.9)")
        for trace in (0, 1):
            result = run_once(workload, SEEDS[1], trace, ops)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: output checks pass for seed {SEEDS[1]}, "
                  f"trace {trace} ({result['failed']} failed)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

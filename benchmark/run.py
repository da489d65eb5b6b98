#!/usr/bin/env python3
"""Build rcs_bench from this checkout and run one workload of it.

    python3 benchmark/run.py --workload steady_delta --seed 1 --seconds 25 --trace 0

The first run configures and builds benchmark/ (and the repository's
libraries under it) into build-bench/; later runs only check the build is
current. rcs_bench then runs the workload for about --seconds of host time,
checks its outputs, and prints a human-readable report, which this script
echoes. The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json; with
--trace 1 they are its per_layer list, the run interleaves traced reps, and
the harness spans are written to build-bench/trace-<workload>-<seed>.json
and validated with trace_dump --check.

Without the repository's sources beside benchmark/, the build fails and the
script exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160
CHECK_TIMEOUT_S = 10


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no repository sources at {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run(args, trace_file):
    command = [os.path.join(BUILD_DIR, "rcs_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_file:
        command += ["--trace", trace_file]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rcs_bench timed out")
    sys.stdout.write(done.stdout)
    prefix = "RESULT "
    results = [json.loads(line[len(prefix):]) for line in done.stdout.splitlines()
               if line.startswith(prefix)]
    if done.returncode not in (0, 1) or len(results) != 1:
        fail(f"rcs_bench exited with {done.returncode} and {len(results)} result(s)")
    return results[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1 or args.seconds < 1:
        fail("--seed and --seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    trace_file = None
    if args.trace:
        trace_file = os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")
    result = run(args, trace_file)
    correct = bool(result["correct"])
    if trace_file:
        checker = os.path.join(BUILD_DIR, "rcs", "tools", "trace_dump")
        checked = subprocess.run([checker, "--check", trace_file],
                                 stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=CHECK_TIMEOUT_S)
        correct = correct and checked.returncode == 0

    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            fail(f"rcs_bench did not report {entry['name']} in {entry['unit']}")
        metrics[entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the day-loop benchmark driver and run one workload.

Usage (from the repository root):

    python3 daybench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

The driver is built from the repository's sources with CMake into
$CARGO_TARGET_DIR/daybench (default .bench_build/daybench); a rebuild
is incremental. Build output goes to stderr, the driver's report to
stdout, whose last line is the JSON result. With --trace 1 the Chrome
trace the driver writes is validated with tools/check_trace.py; a trace
that fails validation marks the run incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def run_checked(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: command failed ({result.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "daybench",
                 "-j", jobs])
    return os.path.join(build_dir, "daybench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "daybench")
    exe = build(build_dir)
    trace_path = os.path.join(build_dir, f"trace_{args.workload}.json")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        sys.exit(f"run.py: driver exited with {result.returncode}")
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace == 1:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
             trace_path], stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            print(f"trace check failed ({check.returncode})", file=sys.stderr)
            report["correct"] = False

    print(json.dumps(report))


if __name__ == "__main__":
    main()

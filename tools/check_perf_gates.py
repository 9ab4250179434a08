#!/usr/bin/env python3
"""CI perf gates over the longitudinal bench artifacts.

Compares a fresh bench run against the repo's committed baselines and
hard-fails the perf-smoke job on:

 * a nonzero steady-state allocation count — BENCH_pipeline.json's
   incremental `allocs` series must be exactly zero on every day after
   the first (day 1 absorbs the process cold start; every later day,
   verdict flips included, runs the allocation-free warm loop the
   counting-allocator test pins at small scale), and

 * a resolved-scan cost regression — the fresh
   `resolved_ns_per_probe` may not exceed the committed baseline by
   more than --tolerance (default 20%). Per-probe normalization keeps
   the number comparable across machines of the same class; the
   generous tolerance absorbs the rest of the hardware delta while
   still catching a kernel that quietly fell back to scalar code
   (a ~2.5x jump), and

 * with --obs-run: an observability overhead regression —
   the fully-instrumented run's incremental day-loop total may not
   exceed --obs-factor (default 1.03) times the --obs-off baseline
   plus --obs-grace-ms (default 30 ms — two back-to-back processes on
   a shared CI runner carry a few ms of scheduler noise each, which a
   pure ratio would mistake for overhead on a fast run). The obs
   run's incremental `allocs` must also be zero on every warm day:
   tracing and metrics enabled may not reintroduce day-loop
   allocations.

Usage: check_perf_gates.py --fresh bench-out [--baseline repo-root]
                           [--obs-run bench-out-obs]
Exit: 0 when all gates hold, 1 on violation, 2 on missing artifacts.
"""

import argparse
import json
import sys
from pathlib import Path


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"check_perf_gates: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="directory with the fresh BENCH_*.json run")
    parser.add_argument("--baseline", default=".",
                        help="directory with the committed baselines")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional resolved_ns regression")
    parser.add_argument("--obs-run", default=None,
                        help="directory with the fully-instrumented "
                             "BENCH_*.json run (enables the overhead gate)")
    parser.add_argument("--obs-factor", type=float, default=1.03,
                        help="allowed obs/baseline day-loop time ratio")
    parser.add_argument("--obs-grace-ms", type=float, default=30.0,
                        help="absolute grace on the obs overhead gate")
    args = parser.parse_args()

    fresh_scan = load(Path(args.fresh) / "BENCH_scan.json")
    base_scan = load(Path(args.baseline) / "BENCH_scan.json")
    fresh_pipe = load(Path(args.fresh) / "BENCH_pipeline.json")

    failures = 0

    allocs = fresh_pipe.get("incremental", {}).get("allocs", [])
    if not allocs:
        print("check_perf_gates: BENCH_pipeline.json has no incremental "
              "allocs series", file=sys.stderr)
        failures += 1
    for day, count in enumerate(allocs[1:], start=2):
        if count != 0:
            print(f"check_perf_gates: day {day} allocated {count} times; "
                  "warm run_day days must be allocation-free",
                  file=sys.stderr)
            failures += 1

    fresh_ns = fresh_scan.get("resolved_ns_per_probe", 0.0)
    base_ns = base_scan.get("resolved_ns_per_probe", 0.0)
    if fresh_ns <= 0 or base_ns <= 0:
        print("check_perf_gates: missing resolved_ns_per_probe "
              f"(fresh={fresh_ns}, baseline={base_ns})", file=sys.stderr)
        failures += 1
    elif fresh_ns > base_ns * (1.0 + args.tolerance):
        print(f"check_perf_gates: resolved scan regressed: {fresh_ns:.2f} "
              f"ns/probe vs committed {base_ns:.2f} (+{args.tolerance:.0%} "
              "allowed)", file=sys.stderr)
        failures += 1
    else:
        print(f"check_perf_gates: resolved {fresh_ns:.2f} ns/probe vs "
              f"baseline {base_ns:.2f} — OK")

    if args.obs_run:
        obs_pipe = load(Path(args.obs_run) / "BENCH_pipeline.json")
        base_ms = sum(fresh_pipe.get("incremental", {}).get("day_ms", []))
        obs_ms = sum(obs_pipe.get("incremental", {}).get("day_ms", []))
        if base_ms <= 0 or obs_ms <= 0:
            print("check_perf_gates: missing incremental day_ms series "
                  f"(baseline={base_ms}, obs={obs_ms})", file=sys.stderr)
            failures += 1
        elif obs_ms > base_ms * args.obs_factor + args.obs_grace_ms:
            print(f"check_perf_gates: observability overhead too high: "
                  f"{obs_ms:.1f} ms instrumented vs {base_ms:.1f} ms "
                  f"baseline (allowed {args.obs_factor:.2f}x "
                  f"+ {args.obs_grace_ms:.0f} ms)", file=sys.stderr)
            failures += 1
        else:
            print(f"check_perf_gates: obs overhead {obs_ms:.1f} ms vs "
                  f"{base_ms:.1f} ms baseline — OK")
        for day, count in enumerate(
                obs_pipe.get("incremental", {}).get("allocs", [])[1:],
                start=2):
            if count != 0:
                print(f"check_perf_gates: instrumented day {day} allocated "
                      f"{count} times; full observability must stay "
                      "allocation-free on warm days", file=sys.stderr)
                failures += 1

    if failures:
        print(f"check_perf_gates: {failures} gate violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_perf_gates: all gates hold "
          f"({len(allocs)} days, scan within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CI perf gates over four daybench run logs.

Run it with no arguments from the directory that holds the stdout of
four `python3 daybench/run.py --seed 1 --seconds 1` runs:

  campaign.log         --workload campaign --trace 0
  campaign_serial.log  --workload campaign_serial --trace 0
  cold_start.log       --workload cold_start --trace 0
  campaign_trace.log   --workload campaign --trace 1

Each log holds the driver's summary line (`workload=... digest=...`)
and, as its last line, the JSON result. BENCH_daybench.json at the
repository root holds the reference values: the campaign and
cold_start digests and the traced run's APD probe count. A change
that alters the day loop's output refreshes it.

Every gate is exact or compares two numbers from the same run, so no
gate depends on how fast the machine is:

  correct                   every run reports "correct": true and
                            "failed": 0
  digest                    campaign, campaign_serial and the traced
                            campaign print the committed campaign
                            digest; cold_start prints its own
  apd.probes                the traced run's APD probe count equals
                            the committed one
  obs.trace_dropped         the traced run's trace ring dropped nothing
  obs.trace_overhead_ratio  traced over untraced days_per_s, from
                            alternating passes of the traced run, is
                            at least 0.75

Exit: 0 when every gate holds, 1 when one fails (each failure names
its gate), 2 when a log or BENCH_daybench.json is missing or malformed.
"""

import json
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_daybench.json"
TRACED_LOG = "campaign_trace.log"
# log -> (workload that must have written it, its committed digest)
RUNS = {
    "campaign.log": ("campaign", "campaign"),
    "campaign_serial.log": ("campaign_serial", "campaign"),
    "cold_start.log": ("cold_start", "cold_start"),
    TRACED_LOG: ("campaign", "campaign"),
}
MIN_TRACE_OVERHEAD_RATIO = 0.75


def bad_input(message):
    print(f"check_perf_gates: {message}", file=sys.stderr)
    sys.exit(2)


def read_run(log, workload):
    """The summary-line fields and the JSON result of one run log."""
    try:
        lines = Path(log).read_text().splitlines()
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError) as err:
        bad_input(f"{log}: no JSON result line ({err})")
    summary = next((line for line in lines if line.startswith("workload=")),
                   None)
    if summary is None:
        bad_input(f"{log}: no workload= summary line")
    fields = dict(token.split("=", 1) for token in summary.split()
                  if "=" in token)
    if fields.get("workload") != workload:
        bad_input(f"{log}: written by workload {fields.get('workload')}, "
                  f"want {workload}")
    return fields, result


def main():
    try:
        committed = json.loads(COMMITTED.read_text())
        digests = {key: committed["digest"][key]
                   for _, key in RUNS.values()}
        apd_probes = committed["apd.probes"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        bad_input(f"cannot read {COMMITTED}: {err!r}")

    failures = []

    def gate(name, holds, detail):
        if not holds:
            failures.append(f"gate {name} failed: {detail}")

    runs = {log: read_run(log, workload)
            for log, (workload, _) in RUNS.items()}
    for log, (fields, result) in runs.items():
        gate("correct",
             result.get("correct") is True and result.get("failed") == 0,
             f"{log} reports correct={result.get('correct')} "
             f"failed={result.get('failed')}")
        want = digests[RUNS[log][1]]
        gate("digest", fields.get("digest") == want,
             f"{log} prints digest={fields.get('digest')}, committed {want}")

    metrics = runs[TRACED_LOG][1].get("metrics", {})

    def metric(name):
        return metrics.get(name, {}).get("value")

    gate("apd.probes", metric("apd.probes") == apd_probes,
         f"{TRACED_LOG} reports {metric('apd.probes')}, "
         f"committed {apd_probes}")
    gate("obs.trace_dropped", metric("obs.trace_dropped") == 0,
         f"{TRACED_LOG} dropped {metric('obs.trace_dropped')} trace events")
    ratio = metric("obs.trace_overhead_ratio")
    gate("obs.trace_overhead_ratio",
         ratio is not None and ratio >= MIN_TRACE_OVERHEAD_RATIO,
         f"{TRACED_LOG} reports {ratio}, "
         f"want at least {MIN_TRACE_OVERHEAD_RATIO}")

    for failure in failures:
        print(f"check_perf_gates: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_perf_gates: all gates hold over {len(runs)} runs "
          f"(obs.trace_overhead_ratio {ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

// The scan contract of the day loop: for seeds {1,2,3} x threads
// {1,4} x 10 mid-campaign days (crossing rotation epochs while cached
// rows age), every scanned mask must equal NetworkSim::probe and the
// frame's rows must be the admitted unaliased rows (day_oracle.h
// checks both every day). The scan results must be byte-identical
// for every thread count, under the default schedule, a protocol
// subset, and a retrying schedule whose budget admits only part of
// each day's unaliased rows. The resolution cache must cover every
// row and must have cached rotating rows, or the epoch-refresh
// machinery went untested.
//
// Accepts `--threads N` (repeatable) for extra thread counts.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "day_oracle.h"
#include "net/protocol.h"
#include "scan/probe_schedule.h"
#include "test_main.h"

using namespace v6h;

namespace {

struct RunResult {
  std::string fingerprint;  // byte-exact per-day scan results
  std::uint64_t probes = 0;
  int trimmed_days = 0;  // days the budget admitted fewer than all rows
};

RunResult run_scan(std::uint64_t seed, unsigned threads,
                   const scan::ProbeSchedule& schedule) {
  test::OracleCampaign campaign(seed, threads, schedule);

  RunResult result;
  std::string& fp = result.fingerprint;
  auto field = [&fp](const char* label, std::uint64_t value) {
    fp += label;
    fp += std::to_string(value);
  };
  for (int day = campaign.kFirstDay;
       day < campaign.kFirstDay + campaign.kDays; ++day) {
    const auto report = campaign.run_day(day);
    const auto& frame = report.scan();
    const auto& aliased = campaign.pipeline.store().aliased();
    result.trimmed_days +=
        report.scanned_targets <
        static_cast<std::size_t>(std::count(aliased.begin(), aliased.end(), 0));
    field("\nday ", static_cast<std::uint64_t>(day));
    field(" scanned=", report.scanned_targets);
    field(" any=", frame.responsive_any_count());
    for (const auto protocol : net::kAllProtocols) {
      field(" ", frame.responsive_count(protocol));
    }
    for (const auto row : frame.rows()) {
      fp += "\n  ";
      fp += frame.address_of_row(row).to_string();
      field("/", frame.mask_of_row(row));
    }
  }
  const auto& table = campaign.pipeline.scan_engine().table();
  CHECK(table.rotating_rows() > 0);
  CHECK_EQ(table.size(), campaign.pipeline.store().size());
  result.probes = campaign.sim.probes_sent();
  return result;
}

// "tcp443,udp53", "icmp,tcp80,tcp443,udp53,udp443 retries 2 budget 3000".
std::string label_of(const scan::ProbeSchedule& schedule) {
  std::string label = scan::protocols_to_string(schedule.protocols);
  if (schedule.retries > 0) {
    label += " retries " + std::to_string(schedule.retries);
  }
  if (schedule.daily_probe_budget > 0) {
    label += " budget " + std::to_string(schedule.daily_probe_budget);
  }
  return label;
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  scan::ProbeSchedule subset;
  subset.protocols = {net::Protocol::kTcp443, net::Protocol::kUdp53};
  // 3000 / (5 protocols x 3 attempts) admits 200 rows a day, fewer
  // than the 417-468 unaliased rows of seeds 1-3, so the budget binds
  // every day (the trimmed_days check below keeps that true).
  scan::ProbeSchedule budgeted;
  budgeted.retries = 2;
  budgeted.daily_probe_budget = 3000;
  const std::vector<scan::ProbeSchedule> schedules{{}, subset, budgeted};

  std::vector<std::string> seed_fingerprints;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const auto& schedule : schedules) {
      const std::string label = label_of(schedule);
      const RunResult base = run_scan(seed, thread_counts.front(), schedule);
      CHECK(!base.fingerprint.empty());
      CHECK(base.probes > 0);
      CHECK_EQ(base.trimmed_days, schedule.daily_probe_budget > 0
                                      ? test::OracleCampaign::kDays
                                      : 0);
      for (const unsigned threads : thread_counts) {
        if (threads == thread_counts.front()) continue;  // that is `base`
        const RunResult other = run_scan(seed, threads, schedule);
        CHECK_EQ(other.probes, base.probes);
        test::check_identical(base.fingerprint, other.fingerprint,
                              "seed " + std::to_string(seed) + " " + label +
                                  " threads " + std::to_string(threads));
      }
      std::printf("seed %llu %s: %zu-byte scan sequence, %llu probes\n",
                  static_cast<unsigned long long>(seed), label.c_str(),
                  base.fingerprint.size(),
                  static_cast<unsigned long long>(base.probes));
      if (&schedule == &schedules.front()) {
        seed_fingerprints.push_back(base.fingerprint);
      }
    }
  }
  // Distinct seeds must not collide — guards a constant fingerprint.
  CHECK(seed_fingerprints[0] != seed_fingerprints[1]);
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 4}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

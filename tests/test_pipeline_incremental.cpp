// The incremental contract of the delta-driven day loop: for seeds
// {1,2,3} x threads {1,4} x 10 mid-campaign days, every day must pass
// the brute-force oracles of day_oracle.h (full candidate recount,
// linear alias match, NetworkSim::probe masks, exact probe
// accounting). On top of that the DayDelta must account for each
// aliased-set transition, a prefix must age out of the sliding window
// in-run, and the DayReport sequence must be byte-identical for every
// thread count. Seed 1 also runs at candidate thresholds 0 (clamped
// to 1 by the counter) and 6 (crossings above the default 2), where
// the candidate batch must grow in-run.
//
// Accepts `--threads N` (repeatable) for extra thread counts.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "apd/apd.h"
#include "day_oracle.h"
#include "net/protocol.h"
#include "test_main.h"

using namespace v6h;

namespace {

struct RunResult {
  std::string fingerprint;  // byte-exact DayReport sequence
  std::uint64_t probes = 0;
  unsigned aged_out_days = 0;  // days on which the aliased set shrank
  std::size_t first_batch = 0;  // APD candidates on the first day
  std::size_t last_batch = 0;   // ... and on the last
};

RunResult run_pipeline(std::uint64_t seed, unsigned threads,
                       std::size_t min_targets) {
  test::OracleCampaign campaign(seed, threads, {}, min_targets);
  const hitlist::Pipeline& pipeline = campaign.pipeline;
  // The oracle already checks the day's batch against this recount.
  auto batch = [&pipeline] {
    return pipeline.detector().candidate_prefixes(pipeline.targets()).size();
  };

  RunResult result;
  std::string& fp = result.fingerprint;
  auto field = [&fp](const char* label, std::uint64_t value) {
    fp += label;
    fp += std::to_string(value);
  };
  std::size_t previous_aliased = 0;
  for (int day = campaign.kFirstDay;
       day < campaign.kFirstDay + campaign.kDays; ++day) {
    const auto report = campaign.run_day(day);
    if (day == campaign.kFirstDay) result.first_batch = batch();
    field("\nday ", static_cast<std::uint64_t>(day));
    field(" new=", report.new_addresses);
    field(" aliased=", report.aliased_prefixes);
    field(" scanned=", report.scanned_targets);
    for (const auto protocol : net::kAllProtocols) {
      field(" ", report.scan().responsive_count(protocol));
    }
    for (const auto& prefix : pipeline.detector().current_aliased()) {
      fp += "\n  alias ";
      fp += prefix.to_string();
    }
    for (const auto row : report.scan().rows()) {
      fp += "\n  ";
      fp += report.scan().address_of_row(row).to_string();
      field("/", report.scan().mask_of_row(row));
    }
    // The delta must account for the aliased-set transition exactly.
    const auto& delta = pipeline.last_delta();
    CHECK_EQ(delta.new_addresses(), report.new_addresses);
    CHECK_EQ(previous_aliased + delta.became_aliased.size() -
                 delta.became_clean.size(),
             report.aliased_prefixes);
    result.aged_out_days += !delta.became_clean.empty();
    previous_aliased = report.aliased_prefixes;
  }
  result.last_batch = batch();
  result.probes = campaign.sim.probes_sent();
  return result;
}

/// Run `seed` at every thread count; returns the first count's run
/// after checking every other one reproduces it.
RunResult run_all_threads(std::uint64_t seed, std::size_t min_targets,
                          const std::vector<unsigned>& thread_counts) {
  const RunResult base = run_pipeline(seed, thread_counts.front(), min_targets);
  CHECK(!base.fingerprint.empty());
  CHECK(base.probes > 0);
  for (std::size_t t = 1; t < thread_counts.size(); ++t) {
    const RunResult other = run_pipeline(seed, thread_counts[t], min_targets);
    CHECK_EQ(other.probes, base.probes);
    test::check_identical(base.fingerprint, other.fingerprint,
                          "seed " + std::to_string(seed) + " min_targets " +
                              std::to_string(min_targets) + " threads " +
                              std::to_string(thread_counts[t]));
  }
  return base;
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  unsigned aged_out_runs = 0;
  std::vector<std::string> seed_fingerprints;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult base =
        run_all_threads(seed, apd::ApdOptions{}.min_targets, thread_counts);
    aged_out_runs += base.aged_out_days > 0;
    std::printf("seed %llu: %zu-byte day sequence, %llu probes, "
                "%u age-out days\n",
                static_cast<unsigned long long>(seed), base.fingerprint.size(),
                static_cast<unsigned long long>(base.probes),
                base.aged_out_days);
    seed_fingerprints.push_back(base.fingerprint);
  }
  // The scenario must actually exercise aging out (a prefix leaving
  // the aliased set mid-run), or the became_clean path went untested.
  CHECK(aged_out_runs > 0);
  // Distinct seeds must not collide — guards a constant fingerprint.
  CHECK(seed_fingerprints[0] != seed_fingerprints[1]);

  // Other candidate thresholds: prefixes must keep crossing in-run, or
  // the counter's crossing path went untested at that threshold.
  for (const std::size_t min_targets : {std::size_t{0}, std::size_t{6}}) {
    const RunResult base = run_all_threads(1, min_targets, thread_counts);
    CHECK(base.last_batch > base.first_batch);
    std::printf("seed 1 min_targets %zu: batch %zu -> %zu, %llu probes\n",
                min_targets, base.first_batch, base.last_batch,
                static_cast<unsigned long long>(base.probes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 4}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

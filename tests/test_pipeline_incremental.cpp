// The incremental contract of the delta-driven day loop: for seeds
// {1,2,3} x threads {1,4} x 10 mid-campaign days, every day must pass
// the brute-force oracles of day_oracle.h (full candidate recount,
// linear alias match, NetworkSim::probe masks, exact probe
// accounting). On top of that the DayDelta must account for each
// aliased-set transition, a prefix must age out of the sliding window
// in-run, and the DayReport sequence must be byte-identical for every
// thread count.
//
// Accepts `--threads N` (repeatable) for extra thread counts.

#include <cstdio>
#include <string>
#include <vector>

#include "day_oracle.h"
#include "net/protocol.h"
#include "test_main.h"

using namespace v6h;

namespace {

struct RunResult {
  std::string fingerprint;  // byte-exact DayReport sequence
  std::uint64_t probes = 0;
  unsigned aged_out_days = 0;  // days on which the aliased set shrank
};

RunResult run_pipeline(std::uint64_t seed, unsigned threads) {
  test::OracleCampaign campaign(seed, threads);
  const hitlist::Pipeline& pipeline = campaign.pipeline;

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
    field("\nday ", static_cast<std::uint64_t>(day));
    field(" new=", report.new_addresses);
    field(" aliased=", report.aliased_prefixes);
    field(" scanned=", report.scanned_targets);
    for (const auto protocol : net::kAllProtocols) {
      field(" ", report.scan().responsive_count(protocol));
    }
    for (const auto& prefix : pipeline.filter().prefixes()) {
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
  result.probes = campaign.sim.probes_sent();
  return result;
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  unsigned aged_out_runs = 0;
  std::vector<std::string> seed_fingerprints;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult base = run_pipeline(seed, thread_counts.front());
    CHECK(!base.fingerprint.empty());
    CHECK(base.probes > 0);
    aged_out_runs += base.aged_out_days > 0;
    for (std::size_t t = 1; t < thread_counts.size(); ++t) {
      const RunResult other = run_pipeline(seed, thread_counts[t]);
      CHECK_EQ(other.probes, base.probes);
      test::check_identical(base.fingerprint, other.fingerprint,
                            "seed " + std::to_string(seed) + " threads " +
                                std::to_string(thread_counts[t]));
    }
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
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 4}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

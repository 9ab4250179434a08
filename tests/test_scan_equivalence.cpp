// The scan contract of the day loop: for seeds {1,2,3} x threads
// {1,4} x 10 mid-campaign days (crossing rotation epochs while cached
// rows age), every scanned mask must equal NetworkSim::probe and the
// streamed rows must mirror the frame (day_oracle.h checks both every
// day). The scan results must be byte-identical for every thread
// count and for both probe interleaves, which change execution order
// only; a protocol-subset schedule must pass the same oracles. The
// resolution cache must cover every row and must have cached rotating
// rows, or the epoch-refresh machinery went untested.
//
// Accepts `--threads N` (repeatable) for extra thread counts.

#include <cstdio>
#include <string>
#include <vector>

#include "day_oracle.h"
#include "net/protocol.h"
#include "scan/probe_schedule.h"
#include "test_main.h"

using namespace v6h;

namespace {

using Interleave = scan::ProbeSchedule::Interleave;

struct RunResult {
  std::string fingerprint;  // byte-exact per-day scan results
  std::uint64_t probes = 0;
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

scan::ProbeSchedule schedule_of(std::vector<net::Protocol> protocols,
                                Interleave interleave) {
  scan::ProbeSchedule schedule;
  schedule.protocols = std::move(protocols);
  schedule.interleave = interleave;
  return schedule;
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  const std::vector<net::Protocol> all(net::kAllProtocols.begin(),
                                       net::kAllProtocols.end());
  const std::vector<net::Protocol> subset{net::Protocol::kTcp443,
                                          net::Protocol::kUdp53};
  std::vector<std::string> seed_fingerprints;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const auto& protocols : {all, subset}) {
      const RunResult base =
          run_scan(seed, thread_counts.front(),
                   schedule_of(protocols, Interleave::kProtocolMajor));
      CHECK(!base.fingerprint.empty());
      CHECK(base.probes > 0);
      for (const unsigned threads : thread_counts) {
        for (const Interleave interleave :
             {Interleave::kProtocolMajor, Interleave::kTargetMajor}) {
          if (threads == thread_counts.front() &&
              interleave == Interleave::kProtocolMajor) {
            continue;  // that is `base`
          }
          const RunResult other =
              run_scan(seed, threads, schedule_of(protocols, interleave));
          CHECK_EQ(other.probes, base.probes);
          test::check_identical(
              base.fingerprint, other.fingerprint,
              "seed " + std::to_string(seed) + " protocols " +
                  scan::protocols_to_string(protocols) + " threads " +
                  std::to_string(threads) + " interleave " +
                  std::to_string(static_cast<int>(interleave)));
        }
      }
      std::printf("seed %llu %s: %zu-byte scan sequence, %llu probes\n",
                  static_cast<unsigned long long>(seed),
                  scan::protocols_to_string(protocols).c_str(),
                  base.fingerprint.size(),
                  static_cast<unsigned long long>(base.probes));
      if (protocols == all) seed_fingerprints.push_back(base.fingerprint);
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

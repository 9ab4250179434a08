// Determinism/equivalence harness for the parallel pipeline engine:
// for seeds {1,2,3} x threads {1,2,4,8}, the parallel pipeline's
// hitlist, alias set, per-protocol response counts, and per-target
// scan results must be byte-identical to the serial run.
//
// Accepts `--threads N` (repeatable) to test extra thread counts —
// the CI ThreadSanitizer job passes --threads 8.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"

using namespace v6h;

namespace {

struct RunResult {
  std::string fingerprint;  // byte-exact transcript of the run
  std::uint64_t probes = 0;
};

// Serialize everything the ISSUE's acceptance criteria name: the
// cumulative hitlist, the alias set, per-protocol response counts —
// plus the full per-target scan masks and the universe shape, so any
// schedule-dependent divergence shows up as a byte difference.
RunResult run_pipeline(std::uint64_t seed, unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  netsim::UniverseParams params;
  params.seed = seed;
  params.scale = 0.05;
  params.tail_as_count = 300;
  const netsim::Universe universe(params, &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, {}, &eng);

  std::string fp;
  auto field = [&fp](const char* label, std::uint64_t value) {
    fp += label;
    fp += std::to_string(value);
  };
  field("zones=", universe.zones().size());
  field(" bgp=", universe.bgp().size());
  field(" aliased=", universe.true_aliased_prefixes().size());
  for (const auto& zone : universe.zones()) {
    field("\nzone ", zone.id());
    field(" ", zone.key());
    fp += " ";
    fp += zone.prefix().to_string();
  }
  // Mid-campaign days: the growth curves have ramped up, so the run
  // exercises real source draws, APD fan-out, and protocol scans.
  for (int day = 150; day < 153; ++day) {
    const auto report = pipeline.run_day(day);
    field("\nday ", static_cast<std::uint64_t>(day));
    field(" new=", report.new_addresses);
    field(" aliased=", report.aliased_prefixes);
    field(" scanned=", report.scanned_targets);
    for (const auto protocol : net::kAllProtocols) {
      field(" ", report.scan().responsive_count(protocol));
    }
    for (const auto row : report.scan().rows()) {
      fp += "\n  ";
      fp += report.scan().address_of_row(row).to_string();
      field("/", report.scan().mask_of_row(row));
    }
  }
  fp += "\nhitlist";
  for (const auto& a : pipeline.targets()) {
    fp += "\n  ";
    fp += a.to_string();
  }
  fp += "\nalias-set";
  for (const auto& p : pipeline.detector().current_aliased()) {
    fp += "\n  ";
    fp += p.to_string();
  }
  return {std::move(fp), sim.probes_sent()};
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult serial = run_pipeline(seed, 1);
    CHECK(!serial.fingerprint.empty());
    CHECK(serial.probes > 0);
    for (const unsigned threads : thread_counts) {
      if (threads <= 1) continue;
      const RunResult parallel = run_pipeline(seed, threads);
      CHECK_EQ(parallel.probes, serial.probes);
      const bool identical = parallel.fingerprint == serial.fingerprint;
      CHECK(identical);
      if (!identical) {
        std::size_t at = 0;
        while (at < serial.fingerprint.size() &&
               at < parallel.fingerprint.size() &&
               serial.fingerprint[at] == parallel.fingerprint[at]) {
          ++at;
        }
        std::fprintf(stderr,
                     "  seed %llu threads %u diverges from serial at byte %zu\n",
                     static_cast<unsigned long long>(seed), threads, at);
      }
    }
    std::printf("seed %llu: serial fingerprint %zu bytes, %llu probes\n",
                static_cast<unsigned long long>(seed),
                serial.fingerprint.size(),
                static_cast<unsigned long long>(serial.probes));
  }
  // Different seeds must not collide — guards against a fingerprint
  // that ignores its inputs.
  CHECK(run_pipeline(1, 1).fingerprint != run_pipeline(2, 1).fingerprint);
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 2, 4, 8}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

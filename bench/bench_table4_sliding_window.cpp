// Table 4: impact of the sliding window on the number of unstable
// aliased prefixes (paper: 65 / 26 / 22 / 14 / 14 / 13 for windows
// 0..5 days).

#include "bench_common.h"
#include "apd/apd.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Table 4: sliding window vs unstable aliased prefixes");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);

  // The instability sources: lossy aliased prefixes and the ICMP-rate-
  // limited /120s, tested daily like the production APD.
  std::vector<ipv6::Prefix> prefixes;
  for (const auto& zone : universe.zones()) {
    if (zone.aliased()) prefixes.push_back(zone.prefix());
  }
  std::printf("  aliased prefixes probed daily: %zu, days: %d\n", prefixes.size(),
              std::max(args.days, 10));

  const int days = std::max(args.days, 10);
  const int paper[] = {65, 26, 22, 14, 14, 13};
  util::TextTable table({"Sliding window", "Unstable prefixes", "paper"});
  std::vector<unsigned> measured;
  for (unsigned window = 0; window <= 5; ++window) {
    netsim::NetworkSim sim(universe);
    apd::ApdOptions options;
    options.window_days = window;
    apd::AliasDetector detector(sim, options, &eng);
    detector.admit(prefixes);
    std::vector<ipv6::Prefix> became_aliased, became_clean;
    for (int day = 0; day < days; ++day) {
      detector.run_day(day, &became_aliased, &became_clean);
    }
    unsigned unstable = 0;
    for (const auto& [prefix, flips] : detector.verdict_flips()) {
      unstable += flips > 0;
    }
    measured.push_back(unstable);
    table.add_row({std::to_string(window), std::to_string(unstable),
                   std::to_string(paper[window])});
  }
  std::printf("%s", table.to_string().c_str());

  bench::compare("reduction window 0 -> 3", "65 -> 14 (~78 %)",
                 std::to_string(measured[0]) + " -> " + std::to_string(measured[3]));
  bench::note("\nShape check: a 3-day window removes most instability; longer");
  bench::note("windows add little while delaying reaction to prefix changes.");
  return 0;
}

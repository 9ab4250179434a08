// Figure 1b: AS distribution per source — fraction of the source's
// addresses contained in its top-X ASes.

#include "bench_common.h"
#include "hitlist/stats.h"
#include "sources/sources.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 1b: AS distribution (CDF over top-X ASes) per source");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  sources::SourceSimulator sources(universe, &eng);

  // Build the final per-source populations.
  std::vector<ipv6::Address> targets;
  std::unordered_map<ipv6::Address, bool, ipv6::AddressHash> seen;
  for (int day = 0; day <= args.horizon; day += 30) {
    for (const auto source : netsim::kAllSources) {
      const auto result = source == netsim::SourceId::kScamper
                              ? sources.collect(source, day, targets)
                              : sources.collect(source, day);
      for (const auto& a : result.new_addresses) {
        if (seen.emplace(a, true).second) targets.push_back(a);
      }
    }
  }

  util::TextTable table(
      {"Source", "top-1", "top-10", "top-100", "top-1000", "#ASes"});
  std::map<netsim::SourceId, std::vector<double>> curves;
  for (const auto source : netsim::kAllSources) {
    const auto& cumulative = sources.cumulative(source);
    std::vector<ipv6::Address> addrs(cumulative.begin(), cumulative.end());
    const auto by_as = hitlist::as_counter(addrs, universe.bgp());
    const auto curve = util::top_group_curve(by_as.values());
    curves[source] = curve;
    table.add_row({to_string(source), util::percent(util::fraction_in_top(curve, 1)),
                   util::percent(util::fraction_in_top(curve, 10)),
                   util::percent(util::fraction_in_top(curve, 100)),
                   util::percent(util::fraction_in_top(curve, 1000)),
                   std::to_string(by_as.distinct())});
  }
  std::printf("%s", table.to_string().c_str());

  bench::note("\nPaper shape: domain lists and CT are extremely top-heavy (a handful");
  bench::note("of ASes holds most addresses); RIPE Atlas is the most balanced.");
  const double ct1 = util::fraction_in_top(curves[netsim::SourceId::kCt], 1);
  const double ra10 = util::fraction_in_top(curves[netsim::SourceId::kRipeAtlas], 10);
  bench::compare("CT: fraction in top-1 AS", "> 90 %", util::percent(ct1));
  bench::compare("Atlas: fraction in top-10 ASes", "small (balanced)",
                 util::percent(ra10));
  return 0;
}

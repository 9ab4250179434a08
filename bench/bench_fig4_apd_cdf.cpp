// Figure 4 + Section 5.3: prefix and AS distributions for all /
// aliased / non-aliased hitlist addresses, and the impact of
// de-aliasing (55.1M -> 29.4M targets; AS coverage -13; prefixes
// -3.2 %).

#include "bench_common.h"
#include "hitlist/stats.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 4 / Section 5.3: de-aliasing impact on the hitlist");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  bench::run_pipeline_days(pipeline, args);

  const auto& store = pipeline.store();
  std::vector<ipv6::Address> aliased, kept;
  for (std::size_t row = 0; row < store.size(); ++row) {
    (store.aliased(row) ? aliased : kept).push_back(store.address(row));
  }
  const auto all = hitlist::summarize_distribution(pipeline.targets(), universe.bgp());
  const auto removed = hitlist::summarize_distribution(aliased, universe.bgp());
  const auto remaining = hitlist::summarize_distribution(kept, universe.bgp());

  util::TextTable table({"Population", "addresses", "#ASes", "#prefixes",
                         "top-1 AS", "top-10 AS", "top-10 prefixes"});
  auto add_row = [&](const char* name, const hitlist::DistributionSummary& s) {
    table.add_row({name, std::to_string(s.addresses), std::to_string(s.ases),
                   std::to_string(s.prefixes),
                   util::percent(util::fraction_in_top(s.as_curve, 1)),
                   util::percent(util::fraction_in_top(s.as_curve, 10)),
                   util::percent(util::fraction_in_top(s.prefix_curve, 10))});
  };
  add_row("all IPs", all);
  add_row("aliased IPs", removed);
  add_row("non-aliased IPs", remaining);
  std::printf("%s", table.to_string().c_str());

  const double kept_share =
      static_cast<double>(kept.size()) / static_cast<double>(all.addresses);
  bench::compare("targets remaining after APD", "53.4 %", util::percent(kept_share));
  bench::compare("AS coverage lost", "13 of 10866 ASes",
                 std::to_string(all.ases - remaining.ases) + " of " +
                     std::to_string(all.ases));
  bench::compare(
      "prefix coverage lost", "3.2 %",
      util::percent(1.0 - static_cast<double>(remaining.prefixes) /
                              static_cast<double>(all.prefixes)));
  bench::compare("aliased IPs concentrated on", "Amazon (1 AS dominates)",
                 util::percent(util::fraction_in_top(removed.as_curve, 1)) +
                     " in top-1 AS");
  bench::note("\nShape checks: aliased space is centered on one CDN AS, so the");
  bench::note("non-aliased AS distribution is flatter than the full population,");
  bench::note("while its prefix distribution becomes slightly more top-heavy.");
  return 0;
}

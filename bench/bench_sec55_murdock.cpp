// Section 5.5: quantitative comparison with Murdock et al.'s static
// /96 alias detection — paper: our multi-level APD flags 992.6k more
// hitlist addresses while probing fewer than half as many addresses
// (50.1M vs 113.8M).

#include "bench_common.h"
#include "apd/murdock.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Section 5.5: multi-level APD vs Murdock et al. (static /96)");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  bench::run_pipeline_days(pipeline, args);
  const auto& targets = pipeline.targets();
  const auto& store = pipeline.store();

  netsim::NetworkSim murdock_sim(universe);
  const auto murdock = apd::murdock_detect(murdock_sim, targets, args.horizon);

  std::size_t ours_only = 0, murdock_only = 0, both = 0, neither = 0;
  std::size_t ours_correct = 0, murdock_correct = 0;
  for (std::size_t row = 0; row < targets.size(); ++row) {
    const auto& a = targets[row];
    const bool mine = store.aliased(row);
    const bool theirs = murdock.is_aliased(a);
    const bool truth = universe.truly_aliased_at(a);
    ours_only += mine && !theirs;
    murdock_only += theirs && !mine;
    both += mine && theirs;
    neither += !mine && !theirs;
    ours_correct += mine == truth;
    murdock_correct += theirs == truth;
  }

  // Probing volume: our APD probes 16 addresses per candidate prefix.
  netsim::NetworkSim counting_sim(universe);
  apd::ApdOptions apd_options;
  apd_options.min_targets = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(0.1 * args.scale)));
  apd::AliasDetector fresh(counting_sim, apd_options, &eng);
  const auto candidates = fresh.candidate_prefixes(targets);
  const std::uint64_t our_addresses = candidates.size() * 16ull;

  util::TextTable table({"Metric", "ours", "Murdock et al.", "paper"});
  table.add_row({"hitlist addresses flagged aliased",
                 std::to_string(ours_only + both), std::to_string(murdock_only + both),
                 "ours +992.6k"});
  table.add_row({"flagged only by this method", std::to_string(ours_only),
                 std::to_string(murdock_only), "992.6k vs 1.4k"});
  table.add_row({"addresses probed for APD (one day)", std::to_string(our_addresses),
                 std::to_string(murdock.addresses_probed), "50.1M vs 113.8M"});
  table.add_row({"ground-truth agreement",
                 util::percent(static_cast<double>(ours_correct) / targets.size()),
                 util::percent(static_cast<double>(murdock_correct) / targets.size()),
                 "n/a (paper had no ground truth)"});
  std::printf("%s", table.to_string().c_str());
  bench::compare("addresses probed (ours, one day)",
                 "50.1M", std::to_string(our_addresses));
  bench::compare("addresses probed (Murdock, one day)", "113.8M",
                 std::to_string(murdock.addresses_probed));
  bench::compare("probe-volume ratio (ours / Murdock)", "< 0.5",
                 util::format_double(static_cast<double>(our_addresses) /
                                         std::max<std::uint64_t>(
                                             murdock.addresses_probed, 1),
                                     2));
  bench::note("\nShape checks: multi-level fan-out finds strictly more aliased");
  bench::note("hitlist addresses (partial /96 aliases, deep /116 levels Murdock's");
  bench::note("static /96 cannot see) and agrees better with ground truth.");
  bench::note("Note on probe volume: the paper's 2x volume advantage relies on its");
  bench::note("hitlist density (~18 targets per known /64 at 55M addresses). At");
  bench::note("1:1000 scale most /64s hold ~1 target, so the /64-exemption makes");
  bench::note("our absolute volume larger here; the relation recovers with --scale.");
  return 0;
}

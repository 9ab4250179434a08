// Figure 5: zesplots of (a) ICMP Echo responses per prefix without
// APD filtering and (b) the detected aliased prefixes (the Amazon /
// Incapsula /48 "hooks").

#include "apd/apd.h"
#include "bench_common.h"
#include "hitlist/stats.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "zesplot/zesplot.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 5: ICMP responses without APD + detected aliased prefixes");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::PipelineOptions options = args.pipeline_options();
  options.schedule.protocols = {net::Protocol::kIcmp};
  hitlist::Pipeline pipeline(universe, sim, options, &eng);
  bench::run_pipeline_days(pipeline, args);

  // (a) probe EVERYTHING (no APD filter) on ICMP, then count the
  // responses per announced prefix off the frame's admitted rows.
  scan::ScanEngine scan_engine(sim, &eng);
  scan::ProbeSchedule icmp_only;
  icmp_only.protocols = {net::Protocol::kIcmp};
  scan::ScanFrame unfiltered_frame;
  scan_engine.scan_addresses(pipeline.targets(), args.horizon, icmp_only,
                             &unfiltered_frame);
  util::Counter<ipv6::Prefix> responses;
  for (const auto row : unfiltered_frame.rows()) {
    if (!net::responds_to(unfiltered_frame.mask_of_row(row),
                          net::Protocol::kIcmp)) {
      continue;
    }
    if (const auto* hit =
            universe.bgp().lookup(unfiltered_frame.address_of_row(row))) {
      responses.add(hit->prefix);
    }
  }

  std::map<ipv6::Prefix, std::uint32_t> asn_of;
  for (const auto& ann : universe.bgp().announcements()) asn_of[ann.prefix] = ann.asn;
  std::vector<zesplot::Item> items_a;
  for (const auto& [prefix, count] : responses.raw()) {
    items_a.push_back({prefix, asn_of[prefix], count});
  }
  const std::size_t prefixes_with_responses = items_a.size();
  zesplot::LayoutOptions unsized;
  unsized.sized = false;
  const auto plot_a = zesplot::layout(std::move(items_a), unsized);
  bench::write_file(args.out_dir + "/fig5a_responses_no_apd.svg", plot_a.to_svg());

  // (b) detected aliased prefixes: BGP-based APD probes the announced
  // prefixes as-is (Section 5.1, "for BGP-based probing, we use each
  // prefix as announced").
  apd::AliasDetector bgp_detector(sim, {}, &eng);
  std::vector<ipv6::Prefix> announced_with_responses;
  for (const auto& [prefix, count] : responses.raw()) {
    announced_with_responses.push_back(prefix);
  }
  bgp_detector.admit(announced_with_responses);
  std::vector<ipv6::Prefix> became_aliased, became_clean;
  bgp_detector.run_day(args.horizon, &became_aliased, &became_clean);
  std::vector<zesplot::Item> items_b;
  std::size_t aliased_count = 0;
  std::map<std::uint8_t, std::size_t> aliased_lengths;
  for (const auto& prefix : bgp_detector.current_aliased()) {
    ++aliased_count;
    ++aliased_lengths[prefix.length()];
    items_b.push_back({prefix, asn_of[prefix], responses.raw().at(prefix)});
  }
  const auto plot_b = zesplot::layout(std::move(items_b), unsized);
  bench::write_file(args.out_dir + "/fig5b_aliased_prefixes.svg", plot_b.to_svg());

  bench::compare("prefixes with ICMP responses (no APD)", "16k",
                 std::to_string(prefixes_with_responses));
  bench::compare("detected aliased announced prefixes", "461 (3.0 % of 16k)",
                 std::to_string(aliased_count) + " (" +
                     util::percent(static_cast<double>(aliased_count) /
                                   std::max<std::size_t>(prefixes_with_responses, 1)) +
                     ")");
  std::printf("  aliased prefix lengths: ");
  for (const auto& [len, n] : aliased_lengths) {
    std::printf("/%u:%zu ", len, n);
  }
  std::printf("\n");
  bench::note("\nShape check: aliasing barely occurs in the shortest prefixes; the");
  bench::note("bulk is /48s of two CDN operators (the 'hooks' of Figure 5b).");
  return 0;
}

// Section 7 (+ Table 7, Figure 9): learning new addresses with
// Entropy/IP and 6Gen — per-AS seeding, generation, responsiveness of
// the generated addresses, overlap analysis, protocol-combination
// profile, and AS/prefix distributions of the responsive hosts.

#include <set>

#include "bench_common.h"
#include "eipgen/model.h"
#include "hitlist/stats.h"
#include "scan/scan_engine.h"
#include "sixgen/sixgen.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Section 7: learning new addresses (Entropy/IP vs 6Gen)");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  bench::run_pipeline_days(pipeline, args);

  // Seeds: non-aliased hitlist addresses, grouped by AS, >= the scaled
  // equivalent of the paper's 100-address AS gate, capped samples.
  const auto& store = pipeline.store();
  std::map<std::uint32_t, std::vector<ipv6::Address>> by_as;
  for (std::size_t row = 0; row < store.size(); ++row) {
    if (store.aliased(row)) continue;
    const auto& a = store.address(row);
    const auto asn = universe.bgp().origin_as(a);
    if (asn != 0) by_as[asn].push_back(a);
  }
  const auto min_seeds = std::max<std::size_t>(
      20, static_cast<std::size_t>(100.0 * args.scale));
  const std::size_t per_as_budget = 4000;  // scaled stand-in for the paper's 1M

  std::set<ipv6::Address> known(pipeline.targets().begin(), pipeline.targets().end());
  std::set<ipv6::Address> eip_set, sixgen_set;
  std::size_t eligible_ases = 0;
  for (const auto& [asn, seeds] : by_as) {
    if (seeds.size() < min_seeds) continue;
    ++eligible_ases;
    const auto model = eipgen::EntropyIpModel::train(seeds);
    for (const auto& a : model.generate(per_as_budget)) {
      if (!known.count(a) && universe.bgp().is_routed(a)) eip_set.insert(a);
    }
    sixgen::SixGenOptions options;
    options.budget = per_as_budget;
    for (const auto& a : sixgen::sixgen_generate(seeds, options).generated) {
      if (!known.count(a) && universe.bgp().is_routed(a)) sixgen_set.insert(a);
    }
  }
  std::printf("  eligible ASes (>= %zu seeds): %zu\n", min_seeds, eligible_ases);

  std::vector<ipv6::Address> eip(eip_set.begin(), eip_set.end());
  std::vector<ipv6::Address> six(sixgen_set.begin(), sixgen_set.end());
  std::size_t overlap_count = 0;
  for (const auto& a : eip) overlap_count += sixgen_set.count(a);

  bench::compare("Entropy/IP new routable addresses", "116M",
                 std::to_string(eip.size()));
  bench::compare("6Gen new routable addresses", "124M", std::to_string(six.size()));
  bench::compare("overlap between the tools", "675k (0.2 %)",
                 std::to_string(overlap_count) + " (" +
                     util::percent(static_cast<double>(overlap_count) /
                                   std::max<std::size_t>(eip.size() + six.size(), 1)) +
                     ")");

  // Probe all generated addresses on all five protocols.
  scan::ScanEngine scan_engine(sim, &eng);
  const scan::ProbeSchedule all_protocols;
  scan::ScanFrame eip_scan, six_scan;
  scan_engine.scan_addresses(eip, args.horizon, all_protocols, &eip_scan);
  scan_engine.scan_addresses(six, args.horizon, all_protocols, &six_scan);

  struct Responder {
    ipv6::Address address;
    net::ProtocolMask mask;
  };
  auto responsive_of = [](const scan::ScanFrame& frame) {
    std::vector<Responder> out;
    for (const auto row : frame.rows()) {
      const net::ProtocolMask mask = frame.mask_of_row(row);
      if (mask != 0) out.push_back({frame.address_of_row(row), mask});
    }
    return out;
  };
  const auto eip_resp = responsive_of(eip_scan);
  const auto six_resp = responsive_of(six_scan);

  const double total_rate =
      static_cast<double>(eip_resp.size() + six_resp.size()) /
      std::max<std::size_t>(eip.size() + six.size(), 1);
  bench::compare("overall response rate", "0.3 %", util::percent(total_rate));
  bench::compare("responsive: 6Gen vs Entropy/IP", "489k vs 278k (~1.8x)",
                 std::to_string(six_resp.size()) + " vs " +
                     std::to_string(eip_resp.size()));

  // Overlap responsiveness (paper: 2.5 %, an order of magnitude higher).
  std::size_t overlap_responsive = 0, overlap_total = 0;
  for (const auto row : eip_scan.rows()) {
    if (!sixgen_set.count(eip_scan.address_of_row(row))) continue;
    ++overlap_total;
    overlap_responsive += eip_scan.mask_of_row(row) != 0;
  }
  bench::compare("response rate on the overlap set", "2.5 %",
                 util::percent(static_cast<double>(overlap_responsive) /
                               std::max<std::size_t>(overlap_total, 1)));

  // ---- Table 7: top protocol combinations.
  bench::header("Table 7: top responsive protocol combinations (6Gen vs Entropy/IP)");
  auto combo_shares = [](const std::vector<Responder>& resp) {
    std::map<std::uint8_t, std::size_t> combos;
    for (const auto& r : resp) ++combos[r.mask];
    return combos;
  };
  const auto six_combos = combo_shares(six_resp);
  const auto eip_combos = combo_shares(eip_resp);
  auto share = [](const std::map<std::uint8_t, std::size_t>& combos,
                  std::uint8_t mask, std::size_t total) {
    const auto it = combos.find(mask);
    return util::percent(
        it == combos.end()
            ? 0.0
            : static_cast<double>(it->second) / std::max<std::size_t>(total, 1));
  };
  const std::uint8_t icmp = 1u << net::index_of(net::Protocol::kIcmp);
  const std::uint8_t t80 = 1u << net::index_of(net::Protocol::kTcp80);
  const std::uint8_t t443 = 1u << net::index_of(net::Protocol::kTcp443);
  const std::uint8_t u53 = 1u << net::index_of(net::Protocol::kUdp53);
  const std::uint8_t u443 = 1u << net::index_of(net::Protocol::kUdp443);
  util::TextTable combos({"Combination", "6Gen", "Entropy/IP", "paper 6Gen",
                          "paper E/IP"});
  combos.add_row({"ICMP only", share(six_combos, icmp, six_resp.size()),
                  share(eip_combos, icmp, eip_resp.size()), "66.8 %", "41.1 %"});
  combos.add_row({"ICMP+TCP80+TCP443",
                  share(six_combos, icmp | t80 | t443, six_resp.size()),
                  share(eip_combos, icmp | t80 | t443, eip_resp.size()), "9.2 %",
                  "12.3 %"});
  combos.add_row({"UDP53 only", share(six_combos, u53, six_resp.size()),
                  share(eip_combos, u53, eip_resp.size()), "7.3 %", "23.1 %"});
  combos.add_row({"ICMP+TCP80", share(six_combos, icmp | t80, six_resp.size()),
                  share(eip_combos, icmp | t80, eip_resp.size()), "4.9 %", "3.4 %"});
  combos.add_row({"ICMP+TCP80+TCP443+QUIC",
                  share(six_combos, icmp | t80 | t443 | u443, six_resp.size()),
                  share(eip_combos, icmp | t80 | t443 | u443, eip_resp.size()),
                  "3.2 %", "6.1 %"});
  std::printf("%s", combos.to_string().c_str());

  // ---- Figure 9: AS/prefix distributions of responsive addresses.
  bench::header("Figure 9: distributions of responsive generated addresses");
  auto addresses_of = [](const std::vector<Responder>& resp) {
    std::vector<ipv6::Address> out;
    for (const auto& r : resp) out.push_back(r.address);
    return out;
  };
  const auto six_summary =
      hitlist::summarize_distribution(addresses_of(six_resp), universe.bgp());
  const auto eip_summary =
      hitlist::summarize_distribution(addresses_of(eip_resp), universe.bgp());
  util::TextTable fig9({"Tool", "responsive", "#ASes", "top-2 AS share",
                        "paper #ASes"});
  fig9.add_row({"6Gen", std::to_string(six_resp.size()),
                std::to_string(six_summary.ases),
                util::percent(util::fraction_in_top(six_summary.as_curve, 2)),
                "1442"});
  fig9.add_row({"Entropy/IP", std::to_string(eip_resp.size()),
                std::to_string(eip_summary.ases),
                util::percent(util::fraction_in_top(eip_summary.as_curve, 2)),
                "1275"});
  std::printf("%s", fig9.to_string().c_str());
  bench::note("\nShape checks: tools overlap very little yet find responsive hosts");
  bench::note("in overlapping ASes; 6Gen responds more ICMP-only (ISP/CPE space),");
  bench::note("Entropy/IP finds relatively more DNS servers (structured plans).");
  return 0;
}

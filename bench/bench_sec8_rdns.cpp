// Section 8 (+ Figure 10, Table 8): rDNS as a data source — walk the
// simulated ip6.arpa tree, compare overlap and balance against the
// hitlist, probe responsiveness, and list the top rDNS ASes.

#include "bench_common.h"
#include "hitlist/stats.h"
#include "rdns/rdns.h"
#include "scan/scan_engine.h"
#include "ipv6/iid.h"
#include <set>

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Section 8: rDNS as a data source");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  const auto report = bench::run_pipeline_days(pipeline, args);

  const auto tree = rdns::RdnsTree::build(universe);
  const auto walk = rdns::walk_rdns(tree, universe);
  std::printf("  rDNS walk: %zu addresses via %llu queries\n", walk.addresses.size(),
              static_cast<unsigned long long>(walk.queries));

  // Overlap with the hitlist (paper: 11.7M total, 11.1M new).
  std::set<ipv6::Address> hitlist_set(pipeline.targets().begin(),
                                      pipeline.targets().end());
  std::size_t overlap = 0;
  for (const auto& a : walk.addresses) overlap += hitlist_set.count(a);
  bench::compare("rDNS addresses", "11.7M", std::to_string(walk.addresses.size()));
  bench::compare("new vs hitlist", "11.1M (95 %)",
                 std::to_string(walk.addresses.size() - overlap) + " (" +
                     util::percent(1.0 - static_cast<double>(overlap) /
                                             std::max<std::size_t>(
                                                 walk.addresses.size(), 1)) +
                     ")");

  // Figure 10: balance of the two populations.
  const auto rdns_summary = hitlist::summarize_distribution(walk.addresses,
                                                            universe.bgp());
  const auto hitlist_summary =
      hitlist::summarize_distribution(pipeline.targets(), universe.bgp());
  util::TextTable fig10({"Population", "addresses", "#ASes", "top-10 AS share"});
  fig10.add_row({"hitlist", std::to_string(hitlist_summary.addresses),
                 std::to_string(hitlist_summary.ases),
                 util::percent(util::fraction_in_top(hitlist_summary.as_curve, 10))});
  fig10.add_row({"rDNS", std::to_string(rdns_summary.addresses),
                 std::to_string(rdns_summary.ases),
                 util::percent(util::fraction_in_top(rdns_summary.as_curve, 10))});
  std::printf("%s", fig10.to_string().c_str());
  bench::compare("rDNS AS balance vs hitlist", "rDNS more balanced",
                 util::percent(util::fraction_in_top(rdns_summary.as_curve, 10)) +
                     " vs " +
                     util::percent(util::fraction_in_top(hitlist_summary.as_curve, 10)) +
                     " in top-10 ASes");

  // Responsiveness: filter unrouted/aliased, then probe.
  const auto& detector = pipeline.detector();
  std::vector<ipv6::Address> probe_list;
  std::size_t filtered_aliased = 0;
  for (const auto& a : walk.addresses) {
    if (!universe.bgp().is_routed(a)) continue;
    if (detector.aliased_cover(a) != 0) {
      ++filtered_aliased;
      continue;
    }
    probe_list.push_back(a);
  }
  std::printf("  removed %zu rDNS addresses in aliased prefixes (paper: 13.1k)\n",
              filtered_aliased);
  scan::ScanEngine scan_engine(sim, &eng);
  scan::ScanFrame rdns_scan;
  scan_engine.scan_addresses(probe_list, args.horizon, scan::ProbeSchedule{},
                             &rdns_scan);

  auto rate = [](const scan::ScanFrame& r, net::Protocol p) {
    return r.rows().empty() ? 0.0
                            : static_cast<double>(r.responsive_count(p)) /
                                  static_cast<double>(r.rows().size());
  };
  auto hitlist_rate = [&](net::Protocol p) {
    const auto& frame = report.scan();
    return frame.rows().empty()
               ? 0.0
               : static_cast<double>(frame.responsive_count(p)) /
                     static_cast<double>(frame.rows().size());
  };
  util::TextTable rates({"Protocol", "rDNS", "hitlist", "paper rDNS", "paper hitlist"});
  rates.add_row({"ICMP", util::percent(rate(rdns_scan, net::Protocol::kIcmp)),
                 util::percent(hitlist_rate(net::Protocol::kIcmp)), "10 %", "6 %"});
  rates.add_row({"TCP/80", util::percent(rate(rdns_scan, net::Protocol::kTcp80)),
                 util::percent(hitlist_rate(net::Protocol::kTcp80)), "2 %", "3 %"});
  rates.add_row({"TCP/443", util::percent(rate(rdns_scan, net::Protocol::kTcp443)),
                 util::percent(hitlist_rate(net::Protocol::kTcp443)), "1 %", "2 %"});
  std::printf("%s", rates.to_string().c_str());

  // Table 8: top-5 rDNS ASes in input / ICMP / TCP80 responsive.
  bench::header("Table 8: top rDNS ASes (input, ICMP-responsive, TCP/80-responsive)");
  auto top5 = [&](const std::vector<ipv6::Address>& addrs) {
    const auto counter = hitlist::as_counter(addrs, universe.bgp());
    std::string text;
    for (const auto& [asn, count] : counter.top(5)) {
      text += std::string(universe.as_name(asn)) + " " +
              util::percent(static_cast<double>(count) /
                            std::max<std::size_t>(addrs.size(), 1)) +
              "; ";
    }
    return text;
  };
  std::vector<ipv6::Address> icmp_resp, tcp_resp;
  for (const auto row : rdns_scan.rows()) {
    const net::ProtocolMask mask = rdns_scan.mask_of_row(row);
    const ipv6::Address& address = rdns_scan.address_of_row(row);
    if (net::responds_to(mask, net::Protocol::kIcmp)) icmp_resp.push_back(address);
    if (net::responds_to(mask, net::Protocol::kTcp80)) tcp_resp.push_back(address);
  }
  std::printf("  input : %s\n", top5(walk.addresses).c_str());
  std::printf("  ICMP  : %s\n", top5(icmp_resp).c_str());
  std::printf("  TCP80 : %s\n", top5(tcp_resp).c_str());
  std::printf("  paper input: Comcast, AWeber, Yandex, Belpak, Sunokman\n");
  std::printf("  paper ICMP : Online S.A.S., Sunokman, Latnet, Yandex, Salesforce\n");
  std::printf("  paper TCP80: Google, Hetzner, Freebit, Sakura, TransIP\n");

  // Server-likeness of responsive rDNS addresses.
  std::size_t fffe = 0, low_weight = 0;
  for (const auto& a : tcp_resp) {
    fffe += ipv6::has_eui64_marker(a);
    low_weight += ipv6::iid_hamming_weight(a) <= 6;
  }
  bench::compare("TCP/80 responders with ff:fe SLAAC", "6-9 %",
                 util::percent(static_cast<double>(fffe) /
                               std::max<std::size_t>(tcp_resp.size(), 1)));
  bench::compare("TCP/80 responders with IID weight <= 6", "60 %",
                 util::percent(static_cast<double>(low_weight) /
                               std::max<std::size_t>(tcp_resp.size(), 1)));
  bench::note("\nConclusion check: the responsive rDNS population is server-like and");
  bench::note("adds a balanced, mostly-new set of targets -> worth adding (Sec. 8).");
  return 0;
}

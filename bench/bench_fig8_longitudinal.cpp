// Figure 8: responsiveness over time — take each source's day-0
// responsive addresses as a baseline and re-probe them for 14 days.
// QUIC responsiveness of the CT and AXFR sources is tracked separately
// (the Akamai/HDNet flakiness).
//
// `--protocols` restricts both the daily scans and the per-source
// longitudinal rows to a subset (QUIC rows need udp443, the ICMP
// baselines need icmp).

#include "bench_common.h"

using namespace v6h;

namespace {

struct Row {
  std::string label;
  std::vector<ipv6::Address> baseline;
  net::Protocol protocol = net::Protocol::kIcmp;  // "responsive" criterion
  const char* paper_day13 = "";
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 8: 14-day responsiveness by source (baseline = day-0 responders)");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  bench::run_pipeline_days(pipeline, args);

  auto& sources = pipeline.source_simulator();
  const int day0 = args.horizon;

  // Establish per-source baselines: addresses responsive on day 0.
  auto responsive_subset = [&](const std::vector<ipv6::Address>& addrs,
                               net::Protocol protocol) {
    std::vector<ipv6::Address> out;
    for (const auto& a : addrs) {
      if (sim.probe(a, protocol, day0).responded) out.push_back(a);
    }
    return out;
  };

  std::vector<Row> rows;
  const auto& detector = pipeline.detector();
  auto selected = [&](net::Protocol p) {
    return std::find(args.protocols.begin(), args.protocols.end(), p) !=
           args.protocols.end();
  };
  for (const auto source : netsim::kAllSources) {
    std::vector<ipv6::Address> members;
    for (const auto& a : sources.cumulative(source)) {
      if (detector.aliased_cover(a) == 0) members.push_back(a);
    }
    const char* paper = "";
    switch (source) {
      case netsim::SourceId::kDomainLists: paper = "0.98"; break;
      case netsim::SourceId::kFdns: paper = "0.97"; break;
      case netsim::SourceId::kCt: paper = "0.96"; break;
      case netsim::SourceId::kAxfr: paper = "0.95"; break;
      case netsim::SourceId::kBitnodes: paper = "0.80"; break;
      case netsim::SourceId::kRipeAtlas: paper = "0.98"; break;
      case netsim::SourceId::kScamper: paper = "0.68"; break;
    }
    if (selected(net::Protocol::kIcmp)) {
      rows.push_back({std::string(short_name(source)) + " (ICMP)",
                      responsive_subset(members, net::Protocol::kIcmp),
                      net::Protocol::kIcmp, paper});
    }
    if ((source == netsim::SourceId::kCt ||
         source == netsim::SourceId::kAxfr) &&
        selected(net::Protocol::kUdp443)) {
      rows.push_back({std::string(short_name(source)) + " QUIC",
                      responsive_subset(members, net::Protocol::kUdp443),
                      net::Protocol::kUdp443,
                      source == netsim::SourceId::kCt ? "0.70-0.85 (flaky)"
                                                      : "0.63-0.95 (flaky)"});
    }
  }

  const int horizon_days = 14;
  std::printf("%-14s baseline ", "source");
  for (int day = 0; day < horizon_days; ++day) std::printf(" d%-4d", day);
  std::printf(" paper d13\n");
  for (const auto& row : rows) {
    std::printf("%-14s %8zu ", row.label.c_str(), row.baseline.size());
    for (int day = 0; day < horizon_days; ++day) {
      std::size_t alive = 0;
      for (const auto& a : row.baseline) {
        alive += sim.probe(a, row.protocol, day0 + day).responded;
      }
      const double rate = row.baseline.empty()
                              ? 0.0
                              : static_cast<double>(alive) /
                                    static_cast<double>(row.baseline.size());
      std::printf("%5.2f ", rate);
    }
    std::printf(" %s\n", row.paper_day13);
  }

  bench::note("\nShape checks: server sources (DL/FDNS/CT/AXFR/Atlas) lose only a");
  bench::note("few percent over two weeks; Bitnodes ~20 % and scamper (CPE) ~32 %;");
  bench::note("CT/AXFR QUIC rates fluctuate day to day (QUIC test deployments).");

  return 0;
}

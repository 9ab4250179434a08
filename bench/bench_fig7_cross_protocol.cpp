// Figure 7: conditional probability of responsiveness between
// protocols — Pr[row protocol responds | column protocol responds].
// `--protocols` restricts the daily scan to a subset; unprobed
// protocols then show empty rows/columns (the paper's full matrix
// needs all five).

#include "bench_common.h"
#include "probe/cross_protocol_tally.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 7: cross-protocol conditional responsiveness");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim, args.pipeline_options(), &eng);
  const auto report = bench::run_pipeline_days(pipeline, args);
  std::printf("scanned protocols: %s\n",
              scan::protocols_to_string(args.protocols).c_str());

  // The last day's joint/marginal counts, one mask per scanned row.
  const scan::ScanFrame& frame = report.scan();
  probe::CrossProtocolTally tally;
  for (const auto row : frame.rows()) tally.add(frame.mask_of_row(row));
  const auto matrix = tally.matrix();

  // Paper matrix (rows = Y, columns = X, Pr[Y|X]); order:
  // ICMP, TCP/80, TCP/443, UDP/53, UDP/443.
  const double paper[5][5] = {
      {1.00, 0.95, 0.93, 0.89, 0.99},   // ICMP row
      {0.45, 1.00, 0.91, 0.61, 0.99},   // TCP/80
      {0.29, 0.58, 1.00, 0.54, 0.98},   // TCP/443
      {0.069, 0.10, 0.14, 1.00, 0.029}, // UDP/53
      {0.017, 0.035, 0.054, 0.0065, 1.0},  // UDP/443
  };

  std::printf("measured (paper) Pr[row | column]:\n%-10s", "");
  for (const auto x : net::kAllProtocols) std::printf("%-18s", to_string(x));
  std::printf("\n");
  for (std::size_t y = 0; y < net::kProtocolCount; ++y) {
    std::printf("%-10s", to_string(net::kAllProtocols[y]));
    for (std::size_t x = 0; x < net::kProtocolCount; ++x) {
      std::printf("%5.2f (%5.2f)     ", matrix[y][x], paper[y][x]);
    }
    std::printf("\n");
  }

  const auto icmp = net::index_of(net::Protocol::kIcmp);
  double min_icmp_given_x = 1.0;
  for (std::size_t x = 0; x < net::kProtocolCount; ++x) {
    min_icmp_given_x = std::min(min_icmp_given_x, matrix[icmp][x]);
  }
  bench::compare("min Pr[ICMP | any protocol]", ">= 0.89",
                 util::format_double(min_icmp_given_x, 2));
  bench::compare("Pr[TCP443 | UDP443] (QUIC implies HTTPS)", "0.98",
                 util::format_double(matrix[net::index_of(net::Protocol::kTcp443)]
                                           [net::index_of(net::Protocol::kUdp443)],
                                     2));
  bench::compare("Pr[TCP80 | TCP443] vs Pr[TCP443 | TCP80]", "0.91 vs 0.58",
                 util::format_double(matrix[1][2], 2) + " vs " +
                     util::format_double(matrix[2][1], 2));
  bench::note("\nShape checks: ICMP dominates every column; QUIC implies HTTPS and");
  bench::note("HTTP; the HTTPS->HTTP direction is much stronger than the reverse.");
  return 0;
}

// The probe-kernel contract: NetworkSim's branchless columnar kernel
// (probe_resolved_mask) must be BIT-identical to the model's
// definition, the responded bit of NetworkSim::probe, for every
// address class the universe produces (honest live hosts, dead
// discoverable slots, aliased space, carve-out islands, rotating
// addresses, unrouted space), every protocol, across days and seq
// values, for batch shapes that cross the kernel's internal tile
// boundary and for sparse row subsets. Whole campaigns are covered by
// tests/test_scan_equivalence.cpp, whose every scanned mask must equal
// NetworkSim::probe.

#include <vector>

#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "probe_targets.h"
#include "scan/resolved_table.h"
#include "test_main.h"

using namespace v6h;

namespace {

// Every resolution class, dense enough that one batch spans several
// 128-row kernel tiles plus a ragged tail.
std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                         int day) {
  return test::probe_targets(universe, day, /*zone_stride=*/3, /*seed=*/0xfeed);
}

// One branchless sweep over `rows` against one NetworkSim::probe per
// row; returns true when the scattered masks agree byte for byte.
bool masks_agree(netsim::NetworkSim& sim, const netsim::ResolvedColumns& cols,
                 const std::vector<ipv6::Address>& targets,
                 const std::vector<std::uint32_t>& rows, net::Protocol protocol,
                 int day, unsigned seq) {
  std::vector<net::ProtocolMask> expected(targets.size(), 0);
  for (const auto row : rows) {
    if (sim.probe(targets[row], protocol, day, seq).responded) {
      expected[row] |= net::mask_of(protocol);
    }
  }
  std::vector<net::ProtocolMask> branchless(targets.size(), 0);
  sim.probe_resolved_mask(cols, rows.data(), rows.size(), protocol, day, seq,
                          branchless.data());
  return expected == branchless;
}

void run_tests() {
  netsim::UniverseParams params;
  params.seed = 7;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);

  std::size_t batches = 0;
  std::size_t disagreements = 0;
  for (const int day : {0, 13, 61, 200}) {
    const auto targets = probe_targets(universe, day);
    // Several tiles plus a ragged tail, or the batch shapes below
    // stop meaning anything.
    CHECK(targets.size() > 300);
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), day);
    const auto cols = table.columns();

    std::vector<std::uint32_t> all_rows(targets.size());
    for (std::size_t i = 0; i < all_rows.size(); ++i) {
      all_rows[i] = static_cast<std::uint32_t>(i);
    }
    // Sparse subset (every 3rd row) — the kernel must honor an
    // arbitrary row list, not just dense spans.
    std::vector<std::uint32_t> sparse_rows;
    for (std::size_t i = 0; i < targets.size(); i += 3) {
      sparse_rows.push_back(static_cast<std::uint32_t>(i));
    }
    // Single-tile prefix: exactly one partial tile.
    std::vector<std::uint32_t> short_rows(all_rows.begin(),
                                          all_rows.begin() + 77);

    for (const auto protocol : net::kAllProtocols) {
      for (const unsigned seq : {0u, 3u}) {
        for (const auto* rows : {&all_rows, &sparse_rows, &short_rows}) {
          disagreements +=
              !masks_agree(sim, cols, targets, *rows, protocol, day, seq);
          ++batches;
        }
      }
    }
  }
  CHECK_EQ(disagreements, 0u);
  CHECK(batches == 4u * net::kAllProtocols.size() * 2u * 3u);
}

}  // namespace

TEST_MAIN()

// The probe-kernel contract: NetworkSim's branchless columnar kernel
// (probe_resolved_mask) must be BIT-identical to the scalar
// references — the responded bit of the columnar probe_resolved and
// of NetworkSim::probe — for every address class the universe
// produces (honest live hosts, dead discoverable slots, aliased
// space, carve-out islands, rotating addresses, unrouted space),
// every protocol, across days and seq values, for batch shapes that
// cross the kernel's internal tile boundary and for sparse row
// subsets. Whole campaigns are covered by
// tests/test_scan_equivalence.cpp, whose every scanned mask must equal
// NetworkSim::probe.

#include <vector>

#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/resolved_table.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;

namespace {

// Addresses exercising every resolution class (the probe_targets
// recipe of tests/test_scan_engine.cpp, denser so one batch spans
// several 128-row kernel tiles plus a ragged tail).
std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                         int day) {
  std::vector<ipv6::Address> out;
  util::Rng rng(0xfeed + static_cast<unsigned>(day));
  for (std::size_t z = 0; z < universe.zones().size(); z += 3) {
    const auto& zone = universe.zones()[z];
    const auto pool = zone.discoverable_count();
    out.push_back(zone.discoverable_address(0, day));
    out.push_back(zone.discoverable_address(pool - 1, day));
    out.push_back(zone.discoverable_address(
        static_cast<std::uint32_t>(rng.uniform(pool)), day));
    if (zone.config().lifetime_days > 0) {
      out.push_back(
          zone.discoverable_address(0, day + zone.config().lifetime_days));
    }
    out.push_back(zone.prefix().random_address(rng.next_u64()));
    out.push_back(zone.prefix().fanout_address(static_cast<unsigned>(z & 0xf),
                                               rng.next_u64()));
    if (zone.config().carveout) {
      out.push_back(zone.config().carveout->random_address(rng.next_u64()));
    }
  }
  for (int i = 0; i < 64; ++i) {
    out.push_back(ipv6::Address::from_u64(
        0xfd00000000000000ULL + rng.next_u64(), rng.next_u64()));
  }
  return out;
}

// One branchless sweep over `rows` against the scalar columnar
// probe_resolved over the same rows; returns true when the scattered
// masks agree byte for byte.
bool masks_agree(netsim::NetworkSim& sim, const netsim::ResolvedColumns& cols,
                 const std::vector<std::uint32_t>& rows, std::size_t row_count,
                 net::Protocol protocol, int day, unsigned seq) {
  std::vector<netsim::ProbeResult> results(rows.size());
  sim.probe_resolved(cols, rows.data(), rows.size(), protocol, day, seq,
                     results.data());
  std::vector<net::ProtocolMask> scalar(row_count, 0);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (results[k].responded) scalar[rows[k]] |= net::mask_of(protocol);
  }
  std::vector<net::ProtocolMask> branchless(row_count, 0);
  sim.probe_resolved_mask(cols, rows.data(), rows.size(), protocol, day, seq,
                          branchless.data());
  return scalar == branchless;
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
        disagreements += !masks_agree(sim, cols, all_rows, targets.size(),
                                      protocol, day, seq);
        disagreements += !masks_agree(sim, cols, sparse_rows, targets.size(),
                                      protocol, day, seq);
        disagreements += !masks_agree(sim, cols, short_rows, targets.size(),
                                      protocol, day, seq);
        batches += 3;
      }
    }

    // The branchless mask must also match the model's definition,
    // the unresolved probe(), directly.
    std::vector<net::ProtocolMask> masks(targets.size(), 0);
    for (const auto protocol : net::kAllProtocols) {
      std::fill(masks.begin(), masks.end(), net::ProtocolMask{0});
      sim.probe_resolved_mask(cols, all_rows.data(), all_rows.size(), protocol,
                              day, /*seq=*/0, masks.data());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const bool reference = sim.probe(targets[i], protocol, day, 0).responded;
        disagreements += (masks[i] != 0) != reference;
      }
    }
  }
  CHECK_EQ(disagreements, 0u);
  CHECK(batches == 4u * net::kAllProtocols.size() * 2u * 3u);
}

}  // namespace

TEST_MAIN()

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
//
// The APD fan-out decision (all_respond) is the other batch form of
// probe(): over zone prefixes, /48../112 prefixes around the same
// address classes, /32 announcements with zones below them, and alias
// carve-outs with their aliased parents, it must be true exactly when
// all 16 probe().responded are, and it must count exactly 16 probes
// even when it stops at the first silent address. Each prefix descends
// the zone trie once per day, and all five protocols' decisions reuse
// that cursor, as the detector reuses a candidate's. The partial
// batches must put that first silent address at every position 0..15,
// so the sweep makes the decision stop at each of them. Every swept
// cursor must be settled exactly when no zone prefix lies strictly
// inside its prefix, and the sweep must reach both the decisions a
// settled cursor takes from its zone alone and every kind that falls
// through to the per-address loop. Each alias carve-out is then hit
// on purpose: a fan-out address of its aliased parent, with its seed
// searched until it lands inside the carve-out, must turn that
// parent's decision silent. Last, both entry points count exactly
// from observability lanes inside and past the counter's cells.

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "ipv6/prefix.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "obs/metrics.h"
#include "probe_targets.h"
#include "scan/resolved_table.h"
#include "test_main.h"
#include "util/rng.h"

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

// Every prefix class the fan-out batch can meet: each sampled zone's
// own prefix, /48, /64, /96 and /112 prefixes around every target
// (live, dead, rotating, carve-out and unrouted addresses), the /32
// announcements that hold zones, and each alias carve-out with its
// aliased parent.
std::vector<ipv6::Prefix> fanout_prefixes(
    const netsim::Universe& universe,
    const std::vector<ipv6::Address>& targets) {
  std::vector<ipv6::Prefix> out;
  std::vector<ipv6::Prefix> announcements;
  const auto& zones = universe.zones();
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const auto& config = zones[z].config();
    if (z % 3 == 0) out.push_back(config.prefix);
    if (config.carveout) {
      out.push_back(*config.carveout);
      out.push_back(config.prefix);
    }
    const auto* announcement = universe.bgp().lookup(config.prefix.address());
    if (announcement != nullptr && announcement->prefix.length() == 32 &&
        config.prefix.length() > 32) {
      announcements.push_back(announcement->prefix);
    }
  }
  std::sort(announcements.begin(), announcements.end());
  announcements.erase(std::unique(announcements.begin(), announcements.end()),
                      announcements.end());
  out.insert(out.end(), announcements.begin(), announcements.end());
  for (const auto& a : targets) {
    for (const std::uint8_t length : {48, 64, 96, 112}) {
      out.emplace_back(a, length);
    }
  }
  return out;
}

// How all_respond should reach a decision: from a settled cursor's
// zone alone, or through the per-address loop, and why.
enum FanoutPath : unsigned {
  kSettledAliased,   // loss-free aliased space no carve-out reaches
  kSettledUnrouted,  // the whole prefix outside every zone
  kLossy,            // aliased, rolls loss per address
  kFlakyQuic,        // aliased, flaky QUIC probed on UDP/443
  kCarveout,         // aliased, a carve-out intersects the prefix
  kHonest,           // settled inside an honest zone
  kUnsettled,        // a zone prefix lies strictly inside the prefix
  kFanoutPaths,
};

FanoutPath fanout_path(const netsim::Universe& universe,
                       const ipv6::Prefix& prefix,
                       const netsim::Universe::ZoneCursor& cursor,
                       net::Protocol protocol) {
  if (cursor.node >= 0) return kUnsettled;
  const netsim::Zone* zone = universe.zone_at(cursor, prefix.address());
  if (zone == nullptr) return kSettledUnrouted;
  const auto& config = zone->config();
  if (!config.aliased) return kHonest;
  if (config.carveout && (config.carveout->contains(prefix) ||
                          prefix.contains(*config.carveout))) {
    return kCarveout;
  }
  if (config.loss > 0.0) return kLossy;
  if (config.quic_flaky && protocol == net::Protocol::kUdp443) {
    return kFlakyQuic;
  }
  return kSettledAliased;
}

struct FanoutTally {
  std::size_t calls = 0;
  std::size_t decision_mismatches = 0;  // all_respond != all 16 probe()
  std::size_t probe_miscounts = 0;      // probes_sent() did not grow by 16
  std::size_t none = 0;                 // 0 of 16 answered
  std::size_t some = 0;                 // 1..15 of 16
  std::size_t all = 0;                  // 16 of 16
  // Partial batches by the nybble of their first silent address.
  std::array<std::size_t, 16> first_silent{};
  // Calls by the path all_respond should decide them on.
  std::array<std::size_t, kFanoutPaths> paths{};
};

using FanoutSeeds = std::array<std::uint64_t, 16>;

// The sweep's 16 fan-out seeds of `day`.
FanoutSeeds day_seeds(int day) {
  FanoutSeeds seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        ipv6::Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xfa17));
  }
  return seeds;
}

// One fan-out decision under `prefix`, resumed at its zone-trie
// `cursor`, against 16 probe() calls on the same addresses at
// seq = nybble.
void check_fanout(netsim::NetworkSim& sim, const ipv6::Prefix& prefix,
                  const netsim::Universe::ZoneCursor& cursor,
                  const FanoutSeeds& seeds, net::Protocol protocol, int day,
                  FanoutTally& tally) {
  unsigned answered = 0;
  unsigned first_silent = 16;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    const bool responded =
        sim.probe(prefix.seeded_fanout_address(nybble, seeds[nybble]),
                  protocol, day, nybble)
            .responded;
    answered += responded;
    if (!responded && first_silent == 16) first_silent = nybble;
  }
  ++tally.paths[fanout_path(sim.universe(), prefix, cursor, protocol)];
  const std::uint64_t before = sim.probes_sent();
  const bool decided =
      sim.all_respond(prefix, cursor, seeds.data(), 16, protocol, day);
  tally.probe_miscounts += sim.probes_sent() - before != 16;
  tally.decision_mismatches += decided != (answered == 16);
  ++tally.calls;
  if (answered == 0) {
    ++tally.none;
  } else if (answered == 16) {
    ++tally.all;
  } else {
    ++tally.some;
    ++tally.first_silent[first_silent];
  }
}

// Does any zone prefix lie strictly inside `prefix`? Brute force over
// every zone, against which a settled cursor is checked.
bool zone_inside(const netsim::Universe& universe, const ipv6::Prefix& prefix) {
  for (const auto& zone : universe.zones()) {
    if (zone.prefix().length() > prefix.length() &&
        prefix.contains(zone.prefix())) {
      return true;
    }
  }
  return false;
}

// The nybble a fan-out address under `prefix` pins (the first one
// below the prefix; see Prefix::seeded_fanout_address).
unsigned fanout_nybble_index(const ipv6::Prefix& prefix) {
  return (prefix.length() + 3) / 4;
}

// Each aliased zone with a carve-out, probed with one fan-out address
// inside that carve-out: the carve-out's own nybble, with its seed
// searched until the address lands inside. The carve-out address can
// never answer (aliased zones never invert a slot), so the 16
// reference probes are never all answered, and all_respond must agree
// on each of `days` and every protocol. Returns the zones hit.
std::size_t check_carveout_hits(netsim::NetworkSim& sim,
                                const std::vector<int>& days,
                                FanoutTally& tally) {
  const netsim::Universe& universe = sim.universe();
  std::size_t zones_hit = 0;
  for (const auto& zone : universe.zones()) {
    const auto& config = zone.config();
    if (!config.aliased || !config.carveout) continue;
    const ipv6::Prefix& prefix = config.prefix;
    const ipv6::Prefix& carveout = *config.carveout;
    const unsigned nybble =
        carveout.address().nybble(fanout_nybble_index(prefix));
    // A /64 carve-out under a /48 zone leaves 12 bits to match, so the
    // bound (2^20 tries) is never the limit in practice.
    std::uint64_t seed = 0;
    bool inside = false;
    for (std::uint64_t tries = 0; !inside && tries < (1u << 20); ++tries) {
      seed = util::hash64(zone.key(), tries, 0xca7e);
      inside = carveout.contains(prefix.seeded_fanout_address(nybble, seed));
    }
    if (!inside) continue;
    ++zones_hit;
    const auto cursor = universe.zone_cursor(prefix);
    for (const int day : days) {
      FanoutSeeds seeds = day_seeds(day);
      seeds[nybble] = seed;
      for (const auto protocol : net::kAllProtocols) {
        check_fanout(sim, prefix, cursor, seeds, protocol, day, tally);
      }
    }
  }
  return zones_hit;
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
  FanoutTally fanout;
  std::size_t fanout_prefix_count = 0;
  std::size_t settle_mismatches = 0;  // node < 0 != nothing inside
  for (const int day : {0, 13, 61, 200}) {
    const auto targets = probe_targets(universe, day);
    const auto prefixes = fanout_prefixes(universe, targets);
    const FanoutSeeds seeds = day_seeds(day);
    fanout_prefix_count += prefixes.size();
    for (const auto& prefix : prefixes) {
      const auto cursor = universe.zone_cursor(prefix);
      settle_mismatches += (cursor.node < 0) == zone_inside(universe, prefix);
      for (const auto protocol : net::kAllProtocols) {
        check_fanout(sim, prefix, cursor, seeds, protocol, day, fanout);
      }
    }
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

  CHECK_EQ(fanout.decision_mismatches, 0u);
  CHECK_EQ(fanout.probe_miscounts, 0u);
  CHECK_EQ(fanout.calls, fanout_prefix_count * net::kAllProtocols.size());
  // The sweep reaches silent, partial and fully answering prefixes,
  // and the decision has to stop at every position.
  CHECK(fanout.none > 0);
  CHECK(fanout.some > 0);
  CHECK(fanout.all > 0);
  CHECK(std::count(fanout.first_silent.begin(), fanout.first_silent.end(),
                   std::size_t{0}) == 0);
  std::printf("fan-out: %zu batches, %zu silent, %zu partial, %zu full\n",
              fanout.calls, fanout.none, fanout.some, fanout.all);

  // A settled cursor is one with no zone strictly inside its prefix:
  // the fold must not settle a node with children, and must not stop
  // settling childless ones. And the sweep reaches every path.
  CHECK_EQ(settle_mismatches, 0u);
  const auto& paths = fanout.paths;
  CHECK(std::count(paths.begin(), paths.end(), std::size_t{0}) == 0);
  const std::size_t settled = paths[kSettledAliased] + paths[kSettledUnrouted];
  std::printf(
      "fan-out paths: %zu settled (%zu aliased, %zu unrouted), %zu per "
      "address (%zu lossy, %zu flaky QUIC, %zu carve-out, %zu honest, %zu "
      "unsettled)\n",
      settled, paths[kSettledAliased], paths[kSettledUnrouted],
      fanout.calls - settled, paths[kLossy], paths[kFlakyQuic],
      paths[kCarveout], paths[kHonest], paths[kUnsettled]);

  // Carve-outs hit on purpose: every such zone is found, and its
  // carve-out address makes each decision silent.
  FanoutTally carveout;
  const std::size_t carveout_zones =
      check_carveout_hits(sim, {0, 61}, carveout);
  std::size_t carveout_zone_count = 0;
  for (const auto& zone : universe.zones()) {
    carveout_zone_count += zone.config().aliased && zone.config().carveout;
  }
  CHECK(carveout_zones > 0);
  CHECK_EQ(carveout_zones, carveout_zone_count);
  CHECK_EQ(carveout.calls, carveout_zones * 2 * net::kAllProtocols.size());
  CHECK_EQ(carveout.decision_mismatches, 0u);
  CHECK_EQ(carveout.probe_miscounts, 0u);
  CHECK_EQ(carveout.all, 0u);
  CHECK_EQ(carveout.paths[kCarveout], carveout.calls);
  std::printf("carve-out hits: %zu zones, %zu batches\n", carveout_zones,
              carveout.calls);

  // The sent counter keeps one cell per writer lane and folds a lane
  // past its cells onto one of them: from any lane, each call adds
  // exactly its count, and the sum stays exact.
  const ipv6::Prefix lane_prefix = universe.zones().front().prefix();
  const auto lane_cursor = universe.zone_cursor(lane_prefix);
  const FanoutSeeds lane_seeds = day_seeds(0);
  const std::uint64_t lanes_start = sim.probes_sent();
  std::size_t lane_miscounts = 0;
  std::uint64_t lane_calls = 0;
  for (const unsigned lane : {0u, 1u, 15u, 16u, 1000u}) {
    obs::set_lane(lane);
    std::uint64_t before = sim.probes_sent();
    sim.all_respond(lane_prefix, lane_cursor, lane_seeds.data(), 16,
                    net::Protocol::kIcmp, 0);
    lane_miscounts += sim.probes_sent() - before != 16;
    before = sim.probes_sent();
    sim.probe(lane_prefix.address(), net::Protocol::kIcmp, 0);
    lane_miscounts += sim.probes_sent() - before != 1;
    ++lane_calls;
  }
  obs::set_lane(0);
  CHECK_EQ(lane_miscounts, 0u);
  CHECK_EQ(sim.probes_sent() - lanes_start, 17 * lane_calls);
}

}  // namespace

TEST_MAIN()

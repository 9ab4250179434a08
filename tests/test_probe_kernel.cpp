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
// The APD fan-out decision (plan_fanout + decide_fanouts) is the
// other batch form of probe(): over zone prefixes, /48../112 prefixes
// around the same address classes, /32 announcements with zones below
// them, and alias carve-outs with their aliased parents, it must be
// true exactly when all 16 probe().responded are, and each run of
// candidates must count exactly 16 probes a candidate even when the
// decision builds no address or stops at the first silent one. Each
// (prefix, protocol) plans once per day, as the detector plans a
// candidate once. The partial batches must put that first silent
// address at every position 0..15, so the walk stops at each of them.
// Every swept plan's cursor must be settled exactly when no zone
// prefix lies strictly inside its prefix, every plan's kind must equal
// the one a scan over every zone derives, and the sweep must reach
// every path and every kind. Each alias carve-out is then hit on
// purpose: a fan-out address of its aliased parent, with its seed
// searched until it lands inside the carve-out, must turn that
// parent's decision silent, in the lanes as on the walk. The lanes
// are then swept over every prefix length inside each lossy aliased
// zone, since the sweep above meets only a few. Last, both counting
// entry points count exactly from observability lanes inside and past
// the counter's cells.

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

// Where `prefix` lies, from a scan over every zone: whether a zone
// prefix lies strictly inside it, and the most specific zone holding
// it whole.
struct ZoneScan {
  bool inside = false;
  const netsim::Zone* zone = nullptr;
};

ZoneScan scan_zones(const netsim::Universe& universe,
                    const ipv6::Prefix& prefix) {
  ZoneScan out;
  for (const auto& zone : universe.zones()) {
    const ipv6::Prefix& zp = zone.prefix();
    if (zp.length() > prefix.length() && prefix.contains(zp)) {
      out.inside = true;
    } else if (zp.contains(prefix) &&
               (out.zone == nullptr ||
                zp.length() > out.zone->prefix().length())) {
      out.zone = &zone;
    }
  }
  return out;
}

// Which kind of space the fan-out decision meets, and why.
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

FanoutPath fanout_path(const ZoneScan& where, const ipv6::Prefix& prefix,
                       net::Protocol protocol) {
  if (where.inside) return kUnsettled;
  if (where.zone == nullptr) return kSettledUnrouted;
  const auto& config = where.zone->config();
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

// The plan kind a path calls for: aliased space not serving the
// protocol is never answered, and flaky QUIC on UDP/443 walks.
using Kind = netsim::FanoutPlan::Kind;
constexpr std::size_t kKinds = 4;

Kind expected_kind(FanoutPath path, const ZoneScan& where,
                   net::Protocol protocol) {
  if (path == kSettledUnrouted) return Kind::kNever;
  if (path == kHonest || path == kUnsettled) return Kind::kWalk;
  const auto& config = where.zone->config();
  if (!net::responds_to(config.machine_service, protocol)) return Kind::kNever;
  if (config.quic_flaky && protocol == net::Protocol::kUdp443) {
    return Kind::kWalk;
  }
  return path == kSettledAliased ? Kind::kAlways : Kind::kLanes;
}

struct FanoutTally {
  std::size_t calls = 0;
  std::size_t decision_mismatches = 0;  // verdict != all 16 probe()
  std::size_t probe_miscounts = 0;      // a run did not count 16 apiece
  std::size_t kind_mismatches = 0;      // plan kind != expected_kind
  std::size_t none = 0;                 // 0 of 16 answered
  std::size_t some = 0;                 // 1..15 of 16
  std::size_t all = 0;                  // 16 of 16
  // Partial batches by the nybble of their first silent address.
  std::array<std::size_t, 16> first_silent{};
  // Calls by the kind of space they meet, and by their plan's kind.
  std::array<std::size_t, kFanoutPaths> paths{};
  std::array<std::size_t, kKinds> kinds{};
};

// The sweep's 16 fan-out seeds of `day`.
netsim::FanoutDay::Seeds day_seeds(int day) {
  netsim::FanoutDay::Seeds seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        ipv6::Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xfa17));
  }
  return seeds;
}

// Decide `count` prefixes in one decide_fanouts run, which must count
// 16 probes apiece, into `verdicts`.
void decide_run(netsim::NetworkSim& sim, const netsim::FanoutDay& day,
                const ipv6::Prefix* prefixes, const netsim::FanoutPlan* plans,
                std::size_t count, std::uint8_t* verdicts, FanoutTally& tally) {
  const std::uint64_t before = sim.probes_sent();
  sim.decide_fanouts(day, prefixes, plans, count, verdicts);
  tally.probe_miscounts += sim.probes_sent() - before != 16 * count;
}

// One fan-out verdict under `prefix`, planned as `plan`, against 16
// probe() calls on the same addresses at seq = nybble, and the plan's
// kind against the one `where` calls for.
void check_fanout(netsim::NetworkSim& sim, const ipv6::Prefix& prefix,
                  const ZoneScan& where, const netsim::FanoutPlan& plan,
                  const netsim::FanoutDay& day, bool verdict,
                  FanoutTally& tally) {
  unsigned answered = 0;
  unsigned first_silent = 16;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    const bool responded =
        sim.probe(prefix.seeded_fanout_address(nybble, day.seeds[nybble]),
                  day.protocol, day.day, nybble)
            .responded;
    answered += responded;
    if (!responded && first_silent == 16) first_silent = nybble;
  }
  const FanoutPath path = fanout_path(where, prefix, day.protocol);
  ++tally.paths[path];
  ++tally.kinds[static_cast<std::size_t>(plan.kind)];
  tally.kind_mismatches += plan.kind != expected_kind(path, where, day.protocol);
  tally.decision_mismatches += verdict != (answered == 16);
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

// The nybble a fan-out address under `prefix` pins (the first one
// below the prefix; see Prefix::seeded_fanout_address).
unsigned fanout_nybble_index(const ipv6::Prefix& prefix) {
  return (prefix.length() + 3) / 4;
}

// Each aliased zone with a carve-out, probed with one fan-out address
// inside that carve-out: the carve-out's own nybble, with its seed
// searched until the address lands inside. The carve-out address can
// never answer (aliased zones never invert a slot), so the 16
// reference probes are never all answered, and the decision must agree
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
    const ZoneScan where = scan_zones(universe, prefix);
    for (const int day : days) {
      netsim::FanoutDay::Seeds seeds = day_seeds(day);
      seeds[nybble] = seed;
      for (const auto protocol : net::kAllProtocols) {
        const netsim::FanoutDay fanout(seeds, day, protocol);
        const netsim::FanoutPlan plan = sim.plan_fanout(prefix, protocol);
        std::uint8_t verdict = 0;
        decide_run(sim, fanout, &prefix, &plan, 1, &verdict, tally);
        check_fanout(sim, prefix, where, plan, fanout, verdict != 0, tally);
      }
    }
  }
  return zones_hit;
}

// Every prefix length from each lossy aliased zone's own to /128,
// anchored at one address of the zone, probed with a protocol the
// zone serves: the lanes fold Prefix::random_address's two length
// cases and the pinned nybble into masks, and the sweep above meets
// only /48, /64, /96, /112 and the zones' own lengths. Each prefix
// must plan lanes and decide as its 16 probes do.
void check_lane_lengths(netsim::NetworkSim& sim, FanoutTally& tally) {
  const netsim::Universe& universe = sim.universe();
  for (const auto& zone : universe.zones()) {
    const auto& config = zone.config();
    if (!config.aliased || config.loss <= 0.0 ||
        !net::responds_to(config.machine_service, net::Protocol::kIcmp)) {
      continue;
    }
    const ipv6::Address anchor = config.prefix.random_address(zone.key());
    for (unsigned length = config.prefix.length(); length <= 128; ++length) {
      const ipv6::Prefix prefix(anchor, static_cast<std::uint8_t>(length));
      const ZoneScan where = scan_zones(universe, prefix);
      const netsim::FanoutPlan plan =
          sim.plan_fanout(prefix, net::Protocol::kIcmp);
      for (const int day : {0, 61}) {
        const netsim::FanoutDay fanout(day_seeds(day), day,
                                       net::Protocol::kIcmp);
        std::uint8_t verdict = 0;
        decide_run(sim, fanout, &prefix, &plan, 1, &verdict, tally);
        check_fanout(sim, prefix, where, plan, fanout, verdict != 0, tally);
      }
    }
  }
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
    const netsim::FanoutDay::Seeds seeds = day_seeds(day);
    fanout_prefix_count += prefixes.size();
    std::vector<ZoneScan> where;
    for (const auto& prefix : prefixes) {
      where.push_back(scan_zones(universe, prefix));
    }
    // One decide_fanouts run per protocol over every prefix, as the
    // detector decides a chunk of candidates.
    std::vector<netsim::FanoutPlan> plans(prefixes.size());
    std::vector<std::uint8_t> verdicts(prefixes.size());
    for (const auto protocol : net::kAllProtocols) {
      const netsim::FanoutDay fanout_day(seeds, day, protocol);
      for (std::size_t i = 0; i < prefixes.size(); ++i) {
        plans[i] = sim.plan_fanout(prefixes[i], protocol);
        settle_mismatches += (plans[i].cursor.node < 0) == where[i].inside;
      }
      decide_run(sim, fanout_day, prefixes.data(), plans.data(),
                 prefixes.size(), verdicts.data(), fanout);
      for (std::size_t i = 0; i < prefixes.size(); ++i) {
        check_fanout(sim, prefixes[i], where[i], plans[i], fanout_day,
                     verdicts[i] != 0, fanout);
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
  CHECK_EQ(fanout.kind_mismatches, 0u);
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
  // settling childless ones. And the sweep reaches every path and
  // every plan kind.
  CHECK_EQ(settle_mismatches, 0u);
  const auto& paths = fanout.paths;
  CHECK(std::count(paths.begin(), paths.end(), std::size_t{0}) == 0);
  const auto& kinds = fanout.kinds;
  CHECK(std::count(kinds.begin(), kinds.end(), std::size_t{0}) == 0);
  const std::size_t settled = paths[kSettledAliased] + paths[kSettledUnrouted];
  std::printf(
      "fan-out paths: %zu settled (%zu aliased, %zu unrouted), %zu per "
      "address (%zu lossy, %zu flaky QUIC, %zu carve-out, %zu honest, %zu "
      "unsettled)\n",
      settled, paths[kSettledAliased], paths[kSettledUnrouted],
      fanout.calls - settled, paths[kLossy], paths[kFlakyQuic],
      paths[kCarveout], paths[kHonest], paths[kUnsettled]);
  std::printf("fan-out plans: %zu never, %zu always, %zu lanes, %zu walk\n",
              kinds[static_cast<std::size_t>(Kind::kNever)],
              kinds[static_cast<std::size_t>(Kind::kAlways)],
              kinds[static_cast<std::size_t>(Kind::kLanes)],
              kinds[static_cast<std::size_t>(Kind::kWalk)]);

  // Carve-outs hit on purpose: every such zone is found, and its
  // carve-out address makes each decision silent, the lanes' included.
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
  CHECK_EQ(carveout.kind_mismatches, 0u);
  CHECK(carveout.kinds[static_cast<std::size_t>(Kind::kLanes)] > 0);
  CHECK_EQ(carveout.all, 0u);
  CHECK_EQ(carveout.paths[kCarveout], carveout.calls);
  std::printf("carve-out hits: %zu zones, %zu batches\n", carveout_zones,
              carveout.calls);

  // Lanes at every prefix length, both answering in full and not.
  FanoutTally lengths;
  check_lane_lengths(sim, lengths);
  CHECK(lengths.calls > 0);
  CHECK_EQ(lengths.decision_mismatches, 0u);
  CHECK_EQ(lengths.probe_miscounts, 0u);
  CHECK_EQ(lengths.kind_mismatches, 0u);
  CHECK_EQ(lengths.kinds[static_cast<std::size_t>(Kind::kLanes)], lengths.calls);
  CHECK(lengths.all > 0);
  CHECK(lengths.none + lengths.some > 0);
  std::printf("lane lengths: %zu batches, %zu full\n", lengths.calls, lengths.all);

  // The sent counter keeps one cell per writer lane and folds a lane
  // past its cells onto one of them: from any lane, each call adds
  // exactly its count, and the sum stays exact.
  std::vector<ipv6::Prefix> lane_prefixes;
  std::vector<netsim::FanoutPlan> lane_plans;
  for (std::size_t z = 0; z < 3; ++z) {
    lane_prefixes.push_back(universe.zones()[z].prefix());
    lane_plans.push_back(
        sim.plan_fanout(lane_prefixes.back(), net::Protocol::kIcmp));
  }
  const netsim::FanoutDay lane_day(day_seeds(0), 0, net::Protocol::kIcmp);
  std::vector<std::uint8_t> lane_verdicts(lane_prefixes.size());
  const std::uint64_t lanes_start = sim.probes_sent();
  std::size_t lane_miscounts = 0;
  std::uint64_t lane_calls = 0;
  for (const unsigned lane : {0u, 1u, 15u, 16u, 1000u}) {
    obs::set_lane(lane);
    std::uint64_t before = sim.probes_sent();
    sim.decide_fanouts(lane_day, lane_prefixes.data(), lane_plans.data(),
                       lane_prefixes.size(), lane_verdicts.data());
    lane_miscounts += sim.probes_sent() - before != 16 * lane_prefixes.size();
    before = sim.probes_sent();
    sim.probe(lane_prefixes.front().address(), net::Protocol::kIcmp, 0);
    lane_miscounts += sim.probes_sent() - before != 1;
    ++lane_calls;
  }
  obs::set_lane(0);
  CHECK_EQ(lane_miscounts, 0u);
  CHECK_EQ(sim.probes_sent() - lanes_start,
           (16 * lane_prefixes.size() + 1) * lane_calls);
}

}  // namespace

TEST_MAIN()

// Microbenchmarks for the hot primitives underneath the measurement
// pipeline: address parse/format, trie longest-prefix matching,
// fan-out address generation, entropy fingerprints, k-means, the
// end-to-end per-probe cost of the simulated wire, and the engine's
// cost to dispatch one parallel_for sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "entropy/clustering.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "netsim/network_sim.h"
#include "scan/resolved_table.h"
#include "util/rng.h"

namespace {

using v6h::ipv6::Address;
using v6h::ipv6::Prefix;
using v6h::ipv6::PrefixTrie;

void BM_AddressParse(benchmark::State& state) {
  const std::string text = "2001:db8:407:8000:181c:4fcb:8ca8:7c64";
  for (auto _ : state) {
    auto a = Address::parse(text);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_AddressParse);

void BM_AddressFormat(benchmark::State& state) {
  const Address a = v6h::ipv6::must_parse("2001:db8::8ca8:7c64");
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_AddressFormat);

void BM_TrieLongestMatch(benchmark::State& state) {
  v6h::util::Rng rng(1);
  PrefixTrie<int> trie;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const Address a = Address::from_u64(0x2000000000000000ULL | rng.next_u64() >> 3,
                                        rng.next_u64());
    trie.insert(Prefix(a, static_cast<std::uint8_t>(20 + rng.uniform(29))), i);
  }
  std::vector<Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(Address::from_u64(0x2000000000000000ULL | rng.next_u64() >> 3,
                                       rng.next_u64()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto m = trie.longest_match(probes[i++ & 1023]);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(1000)->Arg(10000)->Arg(56000);

void BM_FanoutAddressGeneration(benchmark::State& state) {
  const Prefix p = v6h::ipv6::must_parse_prefix("2001:db8:407:8000::/64");
  unsigned branch = 0;
  for (auto _ : state) {
    const Address a = p.fanout_address(branch & 0x0f, branch);
    ++branch;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FanoutAddressGeneration);

void BM_EntropyFingerprint(benchmark::State& state) {
  v6h::util::Rng rng(3);
  std::vector<Address> addrs;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    addrs.push_back(Address::from_u64(0x20010db800000000ULL, rng.next_u64()));
  }
  for (auto _ : state) {
    auto fp = v6h::entropy::compute_fingerprint(addrs, v6h::entropy::kFullBelow32);
    benchmark::DoNotOptimize(fp);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EntropyFingerprint)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KMeansSixClusters(benchmark::State& state) {
  v6h::util::Rng rng(4);
  std::vector<v6h::entropy::Fingerprint> points;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    v6h::entropy::Fingerprint fp(24);
    const int family = i % 6;
    for (std::size_t j = 0; j < fp.size(); ++j) {
      fp[j] = ((static_cast<int>(j) + family) % 6 < 2 ? 0.9 : 0.05) +
              0.02 * rng.uniform_real();
    }
    points.push_back(std::move(fp));
  }
  for (auto _ : state) {
    auto result = v6h::entropy::kmeans(points, 6, 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeansSixClusters)->Arg(100)->Arg(1000);

void BM_SimulatedProbe(benchmark::State& state) {
  static const v6h::netsim::Universe universe = [] {
    v6h::netsim::UniverseParams p;
    p.scale = 0.5;
    p.tail_as_count = 2000;
    return v6h::netsim::Universe(p);
  }();
  v6h::netsim::NetworkSim sim(universe);
  std::vector<Address> targets;
  v6h::util::Rng rng(5);
  for (int i = 0; i < 1024; ++i) {
    const auto& zone = universe.zones()[rng.uniform(universe.zones().size())];
    targets.push_back(zone.discoverable_address(
        static_cast<std::uint32_t>(rng.uniform(zone.discoverable_count())), 0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = sim.probe(targets[i++ & 1023], v6h::net::Protocol::kIcmp, 0, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimulatedProbe);

void BM_SimulatedProbeResolved(benchmark::State& state) {
  // The cached-routing counterpart of BM_SimulatedProbe: resolve the
  // target list once, then answer probes from the SoA batch path.
  static const v6h::netsim::Universe universe = [] {
    v6h::netsim::UniverseParams p;
    p.scale = 0.5;
    p.tail_as_count = 2000;
    return v6h::netsim::Universe(p);
  }();
  v6h::netsim::NetworkSim sim(universe);
  std::vector<Address> targets;
  v6h::util::Rng rng(5);
  for (int i = 0; i < 1024; ++i) {
    const auto& zone = universe.zones()[rng.uniform(universe.zones().size())];
    targets.push_back(zone.discoverable_address(
        static_cast<std::uint32_t>(rng.uniform(zone.discoverable_count())), 0));
  }
  v6h::scan::ResolvedTargetTable table(sim);
  table.extend(targets.data(), targets.size(), 0);
  const auto cols = table.columns();
  std::vector<std::uint32_t> rows(targets.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<v6h::net::ProtocolMask> masks(targets.size());
  for (auto _ : state) {
    std::fill(masks.begin(), masks.end(), 0);
    sim.probe_resolved_mask(cols, rows.data(), rows.size(),
                            v6h::net::Protocol::kIcmp, 0, 0, masks.data());
    benchmark::DoNotOptimize(masks.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_SimulatedProbeResolved);

// How many of `prefix`'s 16 day-0 fan-out addresses answer probe().
unsigned answered_fanout(v6h::netsim::NetworkSim& sim, const Prefix& prefix,
                         const v6h::apd::AliasDetector::FanoutSeeds& seeds) {
  unsigned answered = 0;
  for (unsigned n = 0; n < 16; ++n) {
    answered += sim.probe(prefix.seeded_fanout_address(n, seeds[n]),
                          v6h::net::Protocol::kIcmp, 0, n)
                    .responded;
  }
  return answered;
}

// The first truly aliased prefix; in this universe its cursor settles
// and its zone has no loss, so it is planned always and decided
// without building an address.
const Prefix* aliased_prefix(v6h::netsim::NetworkSim&,
                             const v6h::netsim::Universe& universe,
                             const v6h::apd::AliasDetector::FanoutSeeds&) {
  return &universe.true_aliased_prefixes().front();
}

// The first honest zone prefix none of whose 16 day-0 fan-out
// addresses answer: the common case, where the walk stops at the
// first address. Found with probe(), outside the timed loop.
const Prefix* silent_prefix(v6h::netsim::NetworkSim& sim,
                            const v6h::netsim::Universe& universe,
                            const v6h::apd::AliasDetector::FanoutSeeds& seeds) {
  for (const auto& zone : universe.zones()) {
    if (zone.config().aliased) continue;
    const Prefix& prefix = zone.config().prefix;
    if (answered_fanout(sim, prefix, seeds) == 0) return &prefix;
  }
  return nullptr;
}

// The first aliased zone prefix with loss all of whose 16 day-0
// fan-out addresses answer: the lanes build every address and roll
// its loss, the per-address cost a loss-free prefix never pays.
// Found with probe(), outside the timed loop.
const Prefix* lossy_prefix(v6h::netsim::NetworkSim& sim,
                           const v6h::netsim::Universe& universe,
                           const v6h::apd::AliasDetector::FanoutSeeds& seeds) {
  for (const auto& zone : universe.zones()) {
    if (!zone.config().aliased || zone.config().loss <= 0.0) continue;
    const Prefix& prefix = zone.config().prefix;
    if (answered_fanout(sim, prefix, seeds) == 16) return &prefix;
  }
  return nullptr;
}

// The first aliased zone prefix with a carve-out all of whose 16 day-0
// fan-out addresses answer: the lanes also test every address against
// the carve-out. Found with probe(), outside the timed loop.
const Prefix* carveout_prefix(v6h::netsim::NetworkSim& sim,
                              const v6h::netsim::Universe& universe,
                              const v6h::apd::AliasDetector::FanoutSeeds& seeds) {
  for (const auto& zone : universe.zones()) {
    if (!zone.config().aliased || !zone.config().carveout) continue;
    const Prefix& prefix = zone.config().prefix;
    if (answered_fanout(sim, prefix, seeds) == 16) return &prefix;
  }
  return nullptr;
}

// The universe the APD microbenchmarks share.
const v6h::netsim::Universe& apd_universe() {
  static const v6h::netsim::Universe universe = [] {
    v6h::netsim::UniverseParams p;
    p.scale = 0.5;
    p.tail_as_count = 500;
    return v6h::netsim::Universe(p);
  }();
  return universe;
}

using PickPrefix = const Prefix* (*)(v6h::netsim::NetworkSim&,
                                     const v6h::netsim::Universe&,
                                     const v6h::apd::AliasDetector::FanoutSeeds&);

// One candidate's fan-out decision by plan kind: a truly aliased
// prefix, planned always; a silent one, which walks to its first
// address; and a lossy one and one with a carve-out, both answering in
// full, which run all 16 lanes. The detector plans each candidate once
// and derives the day's seeds and loss salts once, so both stay
// outside the timed loop, as they stay outside the day loop.
void BM_ApdPrefixTest(benchmark::State& state, PickPrefix pick) {
  const v6h::netsim::Universe& universe = apd_universe();
  v6h::netsim::NetworkSim sim(universe);
  const auto seeds = v6h::apd::AliasDetector::fanout_seeds(0);
  const Prefix* prefix = pick(sim, universe, seeds);
  if (prefix == nullptr) {
    state.SkipWithError("no zone prefix of this kind");
    return;
  }
  const v6h::netsim::FanoutDay day(seeds, 0, v6h::net::Protocol::kIcmp);
  const v6h::netsim::FanoutPlan plan =
      sim.plan_fanout(*prefix, v6h::net::Protocol::kIcmp);
  for (auto _ : state) {
    const bool aliased_today = sim.decide_fanout(day, *prefix, plan);
    benchmark::DoNotOptimize(aliased_today);
  }
}
BENCHMARK_CAPTURE(BM_ApdPrefixTest, aliased, aliased_prefix);
BENCHMARK_CAPTURE(BM_ApdPrefixTest, silent, silent_prefix);
BENCHMARK_CAPTURE(BM_ApdPrefixTest, lossy, lossy_prefix);
BENCHMARK_CAPTURE(BM_ApdPrefixTest, carveout, carveout_prefix);

// The zone-trie descent alone: what each candidate-day saves now that
// a candidate descends once, when it crosses min_targets, instead of
// once a day. Cycles over the candidates a detector counts from the
// first four discoverable addresses of every zone, so the prefix
// lengths mix as a campaign's do.
void BM_ZoneCursor(benchmark::State& state) {
  const v6h::netsim::Universe& universe = apd_universe();
  v6h::netsim::NetworkSim sim(universe);
  v6h::apd::AliasDetector detector(sim);
  std::vector<Address> addrs;
  for (const auto& zone : universe.zones()) {
    const std::uint32_t count = std::min(zone.discoverable_count(), 4u);
    for (std::uint32_t index = 0; index < count; ++index) {
      addrs.push_back(zone.discoverable_address(index, 0));
    }
  }
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  detector.add_addresses(addrs.data(), addrs.size());
  const std::vector<Prefix>& candidates = detector.candidates();
  if (candidates.empty()) {
    state.SkipWithError("no candidates");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto cursor = universe.zone_cursor(candidates[i]);
    if (++i == candidates.size()) i = 0;
    benchmark::DoNotOptimize(cursor);
  }
}
BENCHMARK(BM_ZoneCursor);

// The engine's dispatch cost: one 32-chunk sweep of trivial work at 4
// threads (8 chunks per thread, the engine's own split), timed from
// the parallel_for call to its return. Arg 0 runs the sweeps back to
// back, while the workers are still awake; arg 200 idles 200 us
// (untimed) before each sweep, long enough for the workers to block,
// so the sweep also pays their wake-up. The time column is the mean
// sweep, p50_us the median.
void BM_EngineSweep(benchmark::State& state) {
  v6h::engine::Engine engine(v6h::engine::EngineOptions{4});
  const auto gap = std::chrono::microseconds(state.range(0));
  std::vector<std::size_t> out(32, 0);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(state.max_iterations));
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] += i;
  };
  for (auto _ : state) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    const auto start = std::chrono::steady_clock::now();
    v6h::engine::parallel_for(&engine, out.size(), 1, work);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    seconds.push_back(std::chrono::duration<double>(stop - start).count());
    state.SetIterationTime(seconds.back());
  }
  if (seconds.empty()) return;
  auto middle = seconds.begin() + static_cast<std::ptrdiff_t>(seconds.size() / 2);
  std::nth_element(seconds.begin(), middle, seconds.end());
  state.counters["p50_us"] = *middle * 1e6;
}
BENCHMARK(BM_EngineSweep)->Arg(0)->Arg(200)->Iterations(4000)->UseManualTime();

}  // namespace

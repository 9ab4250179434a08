// Universe determinism and internal consistency, plus probe-level
// invariants of the simulated wire.

#include <algorithm>
#include <vector>

#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"

using namespace v6h;
using netsim::Universe;
using netsim::UniverseParams;

static void run_tests() {
  UniverseParams params;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const Universe a(params);
  const Universe b(params);

  // Bit-identical construction.
  CHECK_EQ(a.zones().size(), b.zones().size());
  CHECK_EQ(a.bgp().size(), b.bgp().size());
  CHECK(!a.zones().empty());
  CHECK(!a.bgp().announcements().empty());
  bool zones_equal = a.zones().size() == b.zones().size();
  for (std::size_t i = 0; zones_equal && i < a.zones().size(); ++i) {
    zones_equal = a.zones()[i].prefix() == b.zones()[i].prefix() &&
                  a.zones()[i].aliased() == b.zones()[i].aliased() &&
                  a.zones()[i].config().asn == b.zones()[i].config().asn;
  }
  CHECK(zones_equal);
  CHECK_EQ(a.true_aliased_prefixes().size(), b.true_aliased_prefixes().size());
  CHECK(!a.true_aliased_prefixes().empty());

  // A different seed builds a different world.
  UniverseParams other = params;
  other.seed = 43;
  const Universe c(other);
  bool any_difference = a.zones().size() != c.zones().size();
  for (std::size_t i = 0; !any_difference && i < a.zones().size(); ++i) {
    any_difference = !(a.zones()[i].config().host_count ==
                       c.zones()[i].config().host_count);
  }
  CHECK(any_difference);

  // Every zone is routed and resolvable back to itself.
  for (const auto& zone : a.zones()) {
    const auto probe_addr = zone.prefix().random_address(1);
    const auto* found = a.zone_at(probe_addr);
    CHECK(found != nullptr && found->id() == zone.id());
    CHECK(a.bgp().is_routed(probe_addr));
  }

  // Ground truth is consistent with the zone flags.
  for (const auto& prefix : a.true_aliased_prefixes()) {
    const auto inside = prefix.random_address(3);
    const auto* zone = a.zone_at(inside);
    CHECK(zone != nullptr && zone->aliased());
  }

  // Host addresses invert back to their slot, for every scheme.
  for (const auto& zone : a.zones()) {
    if (zone.aliased() || zone.config().host_count == 0) continue;
    const std::uint32_t last = zone.config().host_count - 1;
    for (const std::uint32_t slot : {0u, last}) {
      const auto addr = zone.host_address(slot, 17);
      const auto inverted = zone.slot_of(addr, 17);
      CHECK(inverted && *inverted == slot);
    }
    // A mangled address must not invert.
    auto addr = zone.host_address(0, 17);
    addr.lo ^= 0x5a5a5a5a5a5aULL;
    const auto inverted = zone.slot_of(addr, 17);
    CHECK(!inverted || *inverted != 0);
  }

  // Probing: aliased space answers everywhere, honest zones only on
  // their real hosts; probes are deterministic.
  netsim::NetworkSim sim(a);
  netsim::NetworkSim sim2(a);
  // A lossless aliased zone answers on every address.
  const netsim::Zone* stable_aliased = nullptr;
  for (const auto& zone : a.zones()) {
    if (zone.aliased() && zone.config().loss == 0.0 && !zone.config().carveout) {
      stable_aliased = &zone;
      break;
    }
  }
  CHECK(stable_aliased != nullptr);
  int aliased_answers = 0;
  for (int i = 0; i < 16; ++i) {
    const auto target = stable_aliased->prefix().random_address(i);
    const auto r = sim.probe(target, net::Protocol::kIcmp, 0, 0);
    aliased_answers += r.responded;
    const auto r2 = sim2.probe(target, net::Protocol::kIcmp, 0, 0);
    CHECK_EQ(r.responded, r2.responded);
    CHECK_EQ(r.tsval, r2.tsval);
  }
  CHECK_EQ(aliased_answers, 16);

  std::size_t honest_hits = 0, honest_misses = 0;
  for (const auto& zone : a.zones()) {
    if (zone.aliased() || zone.config().host_count == 0) continue;
    if (sim.probe(zone.host_address(0, 5), net::Protocol::kIcmp, 5, 0).responded) {
      ++honest_hits;
    }
    // An address far beyond the discoverable pool never answers.
    auto ghost = zone.prefix().random_address(0xdead);
    ghost.lo = 0xffffffffffff1234ULL;
    honest_misses += !sim.probe(ghost, net::Protocol::kIcmp, 5, 0).responded;
  }
  CHECK(honest_hits > 0);
  std::size_t honest_zones = 0;
  for (const auto& zone : a.zones()) {
    honest_zones += !zone.aliased() && zone.config().host_count > 0;
  }
  CHECK_EQ(honest_misses, honest_zones);

  CHECK(sim.probes_sent() > 0);
  CHECK_EQ(a.as_name(16509), std::string("Amazon"));
  CHECK_EQ(a.as_name(4), std::string("AS4"));

  // No announcement contains another (nor repeats one): each AS
  // announces either its own /32 or /48s inside that /32.
  // AliasDetector::aliased_cover's count is exact only under this,
  // since it visits one announcement per address. Sorted by (address, length), a
  // prefix that contains any other contains the entry right after it.
  for (const std::uint64_t seed : {1, 2, 7}) {
    for (const double scale : {0.05, 0.3}) {
      UniverseParams nesting;
      nesting.seed = seed;
      nesting.scale = scale;
      const Universe universe(nesting);
      std::vector<ipv6::Prefix> announced;
      for (const auto& announcement : universe.bgp().announcements()) {
        announced.push_back(announcement.prefix);
      }
      std::sort(announced.begin(), announced.end());
      std::size_t nested = 0;
      for (std::size_t i = 0; i + 1 < announced.size(); ++i) {
        nested += announced[i].contains(announced[i + 1]);
      }
      CHECK(announced.size() > 1000);
      CHECK_EQ(nested, 0u);
    }
  }
}

TEST_MAIN()

#pragma once

// Addresses exercising every resolution class the universe produces:
// live, dead-but-discoverable and day-stale rotating addresses,
// random (usually non-canonical) zone members, APD-style fan-out
// probes, alias carve-out islands, and unrouted space. Built per day
// so rotating zones contribute their current canonical addresses as
// well as stale ones. `zone_stride` samples every n-th zone and
// `seed` salts the per-day draws, so each suite keeps its own fixed
// address set.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "netsim/universe.h"
#include "util/rng.h"

namespace v6h::test {

inline std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                                int day,
                                                std::size_t zone_stride,
                                                std::uint64_t seed) {
  std::vector<ipv6::Address> out;
  util::Rng rng(seed + static_cast<unsigned>(day));
  for (std::size_t z = 0; z < universe.zones().size(); z += zone_stride) {
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
    // The universe announces under 2001:xxxx::/32; fd00::/8 is unrouted.
    out.push_back(ipv6::Address::from_u64(
        0xfd00000000000000ULL + rng.next_u64(), rng.next_u64()));
  }
  return out;
}

}  // namespace v6h::test

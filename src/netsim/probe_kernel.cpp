#include "netsim/probe_kernel.h"

#include <algorithm>

#include "netsim/network_sim.h"
#include "util/rng.h"

// The dense loops live in one function compiled twice: an AVX2 clone
// (GCC synthesizes the 64-bit splitmix multiplies from 32-bit ymm
// lanes) and the baseline encoding, dispatched once at load time via
// the target_clones ifunc. Both clones run the same exact integer and
// exactly-rounded double operations, so they are bit-identical to
// each other and to NetworkSim::probe's scalar predicate on any CPU.
// No clones under TSan: their ifunc resolver runs before TSan's runtime.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define V6H_PROBE_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define V6H_PROBE_KERNEL_CLONES
#endif

namespace v6h::netsim {
namespace {

using util::splitmix64;

// hash64(a, b, c) == sm(sm(sm(a ^ kHashSeed) ^ b) ^ c) — the kernel
// factors the shared sm(sm(key ^ seed) ^ x) prefix out of the per-lane
// hash triple instead of calling hash64 three times.
constexpr std::uint64_t kHashSeed = 0x517cc1b727220a95ULL;

// node_alive()'s fixed churn survival rate (network_sim.cpp).
constexpr std::uint64_t kNodeAliveT = unit_threshold(0.82);

// Tile width: six u64 lane columns per class stay ~12 KiB of stack,
// resident in L1 across the three passes.
constexpr std::size_t kTile = 128;

// Exact u64 -> double for x < 2^53, written as two int32-convertible
// halves so the conversion vectorizes on AVX2 (which has no 64-bit
// int -> double instruction). hi < 2^27 and lo < 2^26, so both
// converts, the power-of-two scale, and the disjoint-bits sum are
// exact — the result is the same double static_cast<double>(x) gives.
inline double u53_to_double(std::uint64_t x) {
  const auto hi = static_cast<std::int32_t>(x >> 26);
  const auto lo = static_cast<std::int32_t>(x & 0x3ffffffu);
  return static_cast<double>(hi) * 0x1.0p26 + static_cast<double>(lo);
}

// One call = one (protocol, day, seq) sweep over rows[0..count).
// Salts are the per-call constants of the scalar predicate, hoisted:
//   salt_stab       0xDA1*131 + day          (host_transient_up)
//   salt_node       0xB17 + day/7            (node_alive)
//   salt_quic_h/a   0xF1C + day / 0xF1B + day (QUIC roll, honest/aliased)
//   salt_loss       hash64(day, seq, proto)  (aliased loss roll)
V6H_PROBE_KERNEL_CLONES
void mask_sweep(const ResolvedColumns& t, const ZoneKernelParams* zones,
                const std::uint32_t* rows, std::size_t count,
                net::ProtocolMask bit, bool quic, std::uint64_t salt_stab,
                std::uint64_t salt_node, std::uint64_t salt_quic_h,
                std::uint64_t salt_quic_a, std::uint64_t salt_loss,
                std::uint64_t day_u, net::ProtocolMask* masks) {
  // Dense per-tile lanes (SoA): honest rows roll slot-keyed hashes
  // against the zone's stability, aliased rows roll addr-hash-keyed
  // hashes against its loss, so the two classes get separate lanes
  // and separate verdict loops.
  std::uint64_t hkey[kTile], hslot[kTile], hstab[kTile];
  std::uint64_t hsolid[kTile], hsteady[kTile];  // 1 = churn/QUIC off
  std::uint32_t hrow[kTile];
  std::uint64_t akey[kTile], ahash[kTile], aloss[kTile], asteady[kTile];
  std::uint32_t arow[kTile];
  std::uint64_t hv[kTile], av[kTile];

  for (std::size_t base = 0; base < count; base += kTile) {
    const std::size_t n = std::min(kTile, count - base);

    // Pass 0 — scalar gather: admit by service mask (dead, unrouted,
    // and carve-out rows all have mask 0 and drop out here, exactly
    // like the scalar path's first test), split honest from aliased,
    // and pull each lane's zone scalars into dense columns.
    std::size_t nh = 0;
    std::size_t na = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t i = rows[base + k];
      if ((t.service_mask[i] & bit) == 0) continue;
      const ZoneKernelParams& zp = zones[t.zone[i]];
      if (t.flags[i] & ResolvedTarget::kAliased) {
        akey[na] = zp.key;
        ahash[na] = t.alias_hash[t.slot[i]];
        aloss[na] = zp.loss_t;
        asteady[na] = zp.quic_flaky ^ 1u;
        arow[na] = i;
        ++na;
      } else {
        hkey[nh] = zp.key;
        hslot[nh] = t.slot[i];
        hstab[nh] = zp.stab_t;
        hsolid[nh] = zp.nodes ^ 1u;
        hsteady[nh] = zp.quic_flaky ^ 1u;
        hrow[nh] = i;
        ++nh;
      }
    }

    // Pass 1 — branchless verdicts, unit stride, no lane-dependent
    // control flow (the auto-vectorized loops).
    //
    // Honest: up iff the transient roll clears the zone's stability
    // AND (the zone has no node churn OR the churn roll clears 0.82).
    // The two rolls share their sm(sm(key^seed)^slot) prefix.
    for (std::size_t k = 0; k < nh; ++k) {
      const std::uint64_t mid =
          splitmix64(splitmix64(hkey[k] ^ kHashSeed) ^ hslot[k]);
      const std::uint64_t up = splitmix64(mid ^ salt_stab) >> 11;
      const std::uint64_t alive = splitmix64(mid ^ salt_node) >> 11;
      hv[k] = static_cast<std::uint64_t>(up < hstab[k]) &
              (static_cast<std::uint64_t>(alive < kNodeAliveT) | hsolid[k]);
    }
    // Aliased: answers unless the per-(day, seq, protocol) loss roll
    // lands under the zone's loss. loss_t is 0 for lossless zones, so
    // the scalar path's `loss > 0` guard needs no lane mask here.
    for (std::size_t k = 0; k < na; ++k) {
      const std::uint64_t h =
          splitmix64(splitmix64(splitmix64(akey[k] ^ kHashSeed) ^ ahash[k]) ^
                     salt_loss) >>
          11;
      av[k] = static_cast<std::uint64_t>(h >= aloss[k]);
    }
    // QUIC factor (UDP/443 sweeps only — a per-call uniform branch):
    // flaky zones accept at a day-dependent rate. The rate is a
    // rounded double, so this one comparison stays in double exactly
    // as the scalar path computes it: u53_to_double is exact, the
    // 2^-53 scale is exact, and the 0.35 * u and 0.60 + v roundings
    // match resolved_responds step for step.
    if (quic) {
      for (std::size_t k = 0; k < nh; ++k) {
        const std::uint64_t k1 = splitmix64(hkey[k] ^ kHashSeed);
        const std::uint64_t xr =
            splitmix64(splitmix64(k1 ^ 0xF1AULL) ^ day_u) >> 11;
        const double rate = 0.60 + 0.35 * (u53_to_double(xr) * 0x1.0p-53);
        const std::uint64_t xq =
            splitmix64(splitmix64(k1 ^ hslot[k]) ^ salt_quic_h) >> 11;
        hv[k] &= static_cast<std::uint64_t>(
                     u53_to_double(xq) * 0x1.0p-53 < rate) |
                 hsteady[k];
      }
      for (std::size_t k = 0; k < na; ++k) {
        const std::uint64_t k1 = splitmix64(akey[k] ^ kHashSeed);
        const std::uint64_t xr =
            splitmix64(splitmix64(k1 ^ 0xF1AULL) ^ day_u) >> 11;
        const double rate = 0.60 + 0.35 * (u53_to_double(xr) * 0x1.0p-53);
        const std::uint64_t xq =
            splitmix64(splitmix64(k1 ^ ahash[k]) ^ salt_quic_a) >> 11;
        av[k] &= static_cast<std::uint64_t>(
                     u53_to_double(xq) * 0x1.0p-53 < rate) |
                 asteady[k];
      }
    }

    // Pass 2 — scalar scatter: bit * verdict is bit or 0, so a miss
    // ORs nothing and a hit ORs the protocol bit, with no branch.
    for (std::size_t k = 0; k < nh; ++k) {
      masks[hrow[k]] |= static_cast<net::ProtocolMask>(bit * hv[k]);
    }
    for (std::size_t k = 0; k < na; ++k) {
      masks[arow[k]] |= static_cast<net::ProtocolMask>(bit * av[k]);
    }
  }
}

}  // namespace

void probe_mask_branchless(const ResolvedColumns& t,
                           const ZoneKernelParams* zones,
                           const std::uint32_t* rows, std::size_t count,
                           net::Protocol protocol, int day, unsigned seq,
                           net::ProtocolMask* masks) {
  // Hoist the per-call salts with the scalar path's exact integer
  // conversions (int day passes through `unsigned` in the scalar
  // expressions, so the same truncate-then-zero-extend happens here).
  const net::ProtocolMask bit = net::mask_of(protocol);
  const bool quic = protocol == net::Protocol::kUdp443;
  const std::uint64_t salt_stab = 0xDA1ULL * 131 + static_cast<unsigned>(day);
  const auto salt_node =
      static_cast<std::uint64_t>(0xB17 + static_cast<unsigned>(day / 7));
  const auto salt_quic_h =
      static_cast<std::uint64_t>(0xF1C + static_cast<unsigned>(day));
  const auto salt_quic_a =
      static_cast<std::uint64_t>(0xF1B + static_cast<unsigned>(day));
  const std::uint64_t salt_loss = util::hash64(day, seq, net::index_of(protocol));
  const auto day_u = static_cast<std::uint64_t>(day);
  mask_sweep(t, zones, rows, count, bit, quic, salt_stab, salt_node,
             salt_quic_h, salt_quic_a, salt_loss, day_u, masks);
}

}  // namespace v6h::netsim

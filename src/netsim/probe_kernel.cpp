#include "netsim/probe_kernel.h"

#include <algorithm>

#include "netsim/network_sim.h"
#include "util/rng.h"

// Each kernel's dense loops live in one function compiled three times:
// an AVX-512 clone (x86-64-v4, whose vpmullq multiplies 64-bit lanes
// natively), an AVX2 clone (GCC synthesizes the 64-bit splitmix
// multiplies from 32-bit ymm lanes) and the baseline encoding,
// dispatched once at load time via the target_clones ifunc. The
// clones run the same exact integer and exactly-rounded double
// operations, so they are bit-identical to each other and to
// NetworkSim::probe's scalar predicate on any CPU. GCC 12 takes the
// AVX-512 clone as "arch=x86-64-v4"; it rejects "avx512dq".
// No clones under TSan: their ifunc resolver runs before TSan's runtime.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define V6H_PROBE_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
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

// One fan-out candidate's constants, fixed before its 16 lanes run.
// Address n is Prefix::seeded_fanout_address(n, seeds[n]) with both
// of Prefix::random_address's length cases folded into masks: the
// random bits land where host_hi / host_lo are set, and the pinned
// nybble n where pin_hi / pin_lo are. cut_* is the carve-out as a
// masked compare; no_cut = 1 when the zone has none.
struct FanoutLaneConsts {
  std::uint64_t base_hi, base_lo;  // the prefix's address
  std::uint64_t salt_hi, salt_lo;  // random_address's r_hi salts
  std::uint64_t host_hi, host_lo;
  std::uint64_t pin_hi, pin_lo;
  unsigned pin_shift;
  std::uint64_t cut_mask_hi, cut_mask_lo, cut_hi, cut_lo, no_cut;
  std::uint64_t key_mix;  // splitmix64(zone key ^ kHashSeed)
  std::uint64_t loss_t;
};

// Prefix::contains's mask: the top `bits` of a 64-bit half.
std::uint64_t top_bits(unsigned bits) {
  if (bits == 0) return 0;
  if (bits >= 64) return ~std::uint64_t{0};
  return ~((std::uint64_t{1} << (64 - bits)) - 1);
}

// The 16 lanes, ANDed: 1 iff every address lies outside the carve-out
// and clears its loss roll. Each hash64(a, b, c) below is written out
// as sm(sm(sm(a ^ kHashSeed) ^ b) ^ c), the loss roll with its
// zone-key round hoisted into key_mix.
V6H_PROBE_KERNEL_CLONES
std::uint64_t fanout_lane_sweep(const FanoutLaneConsts& c,
                                const std::uint64_t* seeds,
                                const std::uint64_t* loss_salts) {
  std::uint64_t answered = 1;
  for (unsigned n = 0; n < 16; ++n) {
    const std::uint64_t seed = seeds[n];
    const std::uint64_t r_hi = splitmix64(
        splitmix64(splitmix64(seed ^ kHashSeed) ^ c.salt_hi) ^ c.salt_lo);
    const std::uint64_t r_lo =
        splitmix64(splitmix64(splitmix64(r_hi ^ kHashSeed) ^
                              (seed ^ 0x5f356495ULL)) ^
                   c.base_hi);
    const std::uint64_t pin = std::uint64_t{n} << c.pin_shift;
    const std::uint64_t hi =
        ((c.base_hi | (r_hi & c.host_hi)) & ~c.pin_hi) | (pin & c.pin_hi);
    const std::uint64_t lo =
        ((c.base_lo | (r_lo & c.host_lo)) & ~c.pin_lo) | (pin & c.pin_lo);
    const std::uint64_t addr_hash =
        splitmix64(splitmix64(splitmix64(hi ^ kHashSeed) ^ lo) ^ 0xADULL);
    const std::uint64_t roll =
        splitmix64(splitmix64(c.key_mix ^ addr_hash) ^ loss_salts[n]) >> 11;
    const std::uint64_t outside =
        static_cast<std::uint64_t>((((hi & c.cut_mask_hi) ^ c.cut_hi) |
                                    ((lo & c.cut_mask_lo) ^ c.cut_lo)) != 0) |
        c.no_cut;
    answered &= static_cast<std::uint64_t>(roll >= c.loss_t) & outside;
  }
  return answered;
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

bool fanout_lanes(const ipv6::Prefix& prefix, const ipv6::Prefix* carveout,
                  const ZoneKernelParams& zone, const std::uint64_t* seeds,
                  const std::uint64_t* loss_salts) {
  const unsigned length = prefix.length();
  FanoutLaneConsts c{};
  c.base_hi = prefix.address().hi;
  c.base_lo = prefix.address().lo;
  c.salt_hi = c.base_hi ^ 0x9d2c5680ULL;
  c.salt_lo = c.base_lo + length;
  c.host_hi = length >= 64 ? 0 : ~top_bits(length);
  c.host_lo = length >= 64 ? ~top_bits(length - 64) : ~std::uint64_t{0};
  if (length <= 124) {
    // The first whole nybble below the prefix.
    const unsigned index = (length + 3) / 4;
    if (index < 16) {
      c.pin_shift = (15 - index) * 4;
      c.pin_hi = std::uint64_t{0xf} << c.pin_shift;
    } else {
      c.pin_shift = (31 - index) * 4;
      c.pin_lo = std::uint64_t{0xf} << c.pin_shift;
    }
  }
  c.no_cut = carveout == nullptr;
  if (carveout != nullptr) {
    const unsigned cut = carveout->length();
    c.cut_mask_hi = top_bits(cut);
    c.cut_mask_lo = cut > 64 ? top_bits(cut - 64) : 0;
    c.cut_hi = carveout->address().hi;
    c.cut_lo = carveout->address().lo;
  }
  c.key_mix = splitmix64(zone.key ^ kHashSeed);
  c.loss_t = zone.loss_t;
  return fanout_lane_sweep(c, seeds, loss_salts) != 0;
}

}  // namespace v6h::netsim

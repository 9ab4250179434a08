#pragma once

// Branch-free probe kernels: the SIMD forms of the day/seq predicate
// half of NetworkSim::probe (resolved_responds in network_sim.cpp).
// probe_mask_branchless sweeps the scan's resolved rows;
// fanout_lanes decides an APD candidate in aliased space, its 16
// fan-out addresses one lane each.
//
// The scalar predicate short-circuits: it rolls a loss hash only when
// the zone has loss, a churn hash only for node zones, a QUIC hash
// only for flaky zones — data-dependent branches that serialize the
// sweep over a mixed-zone row set. The kernel restructures the sweep
// into a two-pass tiled form: a scalar gather pass admits rows by
// service mask and splits them into dense honest and aliased lanes,
// then branchless unit-stride loops compute every hash
// unconditionally and combine the verdicts with masks, and a scatter
// pass ORs the protocol bit into the frame's mask column. The fan-out
// kernel runs one loop of 16 lanes, each building an address, hashing
// it and rolling its loss, and ANDs the lanes. Neither kernel's dense
// loops carry lane-dependent control flow, so the compiler
// auto-vectorizes them (tools/check_vectorization.sh asserts the
// remarks); per-function target clones give AVX-512 and AVX2
// encodings with a baseline fallback picked at load time.
//
// Bit-exact equivalence with the scalar path is load-bearing, not
// best-effort. Every threshold comparison uses the exact-integer
// identity below (hash_unit < p <=> 53-bit hash < ceil(p * 2^53)),
// the shared-prefix hash factoring is pure function composition of
// splitmix64 rounds, and the one genuinely floating-point comparison
// (the day-dependent QUIC acceptance rate) is computed with the
// scalar path's exact rounding sequence. tests/test_probe_kernel.cpp
// asserts mask-for-mask equality with NetworkSim::probe across address
// classes, protocols, days, seq, and batch shapes, and every fan-out
// decision against 16 NetworkSim::probe calls;
// tests/test_scan_equivalence.cpp checks whole campaigns against
// NetworkSim::probe for seeds x schedules x thread counts.

#include <cstddef>
#include <cstdint>

#include "ipv6/prefix.h"
#include "net/protocol.h"

namespace v6h::netsim {

struct ResolvedColumns;

/// ZoneProbeParams with the probability thresholds pre-converted to
/// the 53-bit integer form the branchless loops compare against.
/// Built once per NetworkSim next to zone_params_; day-independent.
struct ZoneKernelParams {
  std::uint64_t key = 0;
  std::uint64_t loss_t = 0;  // unit_threshold(loss)
  std::uint64_t stab_t = 0;  // unit_threshold(stability)
  std::uint8_t nodes = 0;        // Bitnodes-style churn applies
  std::uint8_t quic_flaky = 0;   // day-dependent QUIC acceptance rate
};

/// Exact-integer threshold: hash_unit(a,b,c) < p if and only if
/// (hash64(a,b,c) >> 11) < unit_threshold(p), for any double p in
/// [0, 1]. The 53-bit hash converts to double exactly, p * 2^53 is an
/// exact power-of-two scale, and an integer is below a real bound iff
/// it is below the bound's ceiling — so the double comparison the
/// scalar predicate performs and this integer comparison decide
/// identically, including the p = 0 (never) and p = 1 (always) edges.
constexpr std::uint64_t unit_threshold(double p) {
  const double scaled = p * 0x1.0p53;
  const auto floor_part = static_cast<std::uint64_t>(scaled);
  return floor_part + (static_cast<double>(floor_part) < scaled ? 1u : 0u);
}

/// The branchless sweep: for each of rows[0..count), OR
/// mask_of(protocol) into masks[rows[k]] iff the row answers this
/// (protocol, day, seq) probe — bit-identical to the responded bit of
/// NetworkSim::probe for the address the row was resolved from.
/// `zones` is the NetworkSim's ZoneKernelParams table.
void probe_mask_branchless(const ResolvedColumns& t,
                           const ZoneKernelParams* zones,
                           const std::uint32_t* rows, std::size_t count,
                           net::Protocol protocol, int day, unsigned seq,
                           net::ProtocolMask* masks);

/// The APD fan-out of `prefix` in aliased space whose zone is `zone`:
/// whether all 16 addresses prefix.seeded_fanout_address(n, seeds[n])
/// answer, address n at seq n. Each lane builds its address, its
/// address hash and its loss roll against loss_salts[n] (hash64(day,
/// n, protocol)) through the identity above, and a lane inside
/// `carveout` (null when the zone has none) never answers: such an
/// address is honest space, where an aliased zone inverts no slot.
/// Bit-identical to NetworkSim::probe for a zone that serves the
/// protocol and rolls no flaky-QUIC acceptance on it.
bool fanout_lanes(const ipv6::Prefix& prefix, const ipv6::Prefix* carveout,
                  const ZoneKernelParams& zone, const std::uint64_t* seeds,
                  const std::uint64_t* loss_salts);

}  // namespace v6h::netsim

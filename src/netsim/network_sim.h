#pragma once

// The simulated wire: deterministic probe responses with the TCP
// fingerprint surface (iTTL, options, wscale, MSS, wsize, timestamps)
// the alias-resolution analyses of Section 5.4 need.
//
// Three entry points share one response predicate:
//  - probe(): resolve the target through the universe (zone trie, slot
//    inversion, service mask) on every call and, when it answers,
//    derive its machine image. The model's definition: the
//    fingerprint analyses and the test oracles use it.
//  - plan_fanout() + decide_fanouts(): the APD fan-out decision. Do
//    all 16 of a prefix's fan-out addresses answer, address n at seq
//    n? A candidate plans once in its life: its zone-trie cursor
//    (Universe::zone_cursor) and what its settled zone allows
//    (FanoutPlan::Kind). Settled unrouted space, or aliased space not
//    serving the protocol, is never answered; loss-free aliased space
//    that no carve-out reaches always is; other settled aliased space
//    builds its 16 addresses and loss rolls as integer lanes
//    (fanout_lanes in probe_kernel.h). Only honest, unsettled and
//    flaky-QUIC candidates walk: address n is built, below the prefix
//    only, once addresses 0..n-1 answered, so the first silent one
//    settles it. One add per run of candidates to the calling lane's
//    counter cell covers every probe the measurement sends. The
//    decision equals "every probe().responded"
//    (tests/test_probe_kernel.cpp, and every day of
//    tests/day_oracle.h).
//  - resolve() + probe_resolved_mask(): hoist what is immutable per
//    address (per rotation epoch) into a ResolvedTarget record once,
//    then answer each scan probe's responded bit from the cached
//    record plus the few genuinely day/seq-dependent hashes. The scan
//    reads only that bit, so the record carries no machine image.
//    The bit equals probe().responded (tests/test_probe_kernel.cpp,
//    tests/test_scan_engine.cpp); this is the scan::ScanEngine hot
//    path.

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/probe_kernel.h"
#include "netsim/universe.h"

namespace v6h::netsim {

struct ProbeResult {
  bool responded = false;
  std::uint8_t ttl = 0;   // hop-decremented TTL as observed
  std::uint8_t ittl = 0;  // inferred initial TTL (64/128/255)
  std::uint8_t wscale = 0;
  std::uint16_t mss = 0;
  std::uint16_t wsize = 0;
  std::uint8_t options_id = 0;  // options-text equivalence class
  bool has_timestamp = false;
  std::uint32_t tsval = 0;
};

/// Abstract probe time used for the timestamp clocks: two probes of
/// the same day with different `seq` are minutes apart.
inline std::uint64_t probe_time(int day, unsigned seq) {
  return static_cast<std::uint64_t>(day) * 1000 + static_cast<std::uint64_t>(seq) * 10;
}

/// What the scan's responded bit needs from the target address alone,
/// cached once per address: the zone, the inverted host slot, the
/// service mask, and (aliased rows only) the address hash the loss
/// roll keys on. A zero service_mask row can never respond —
/// unrouted addresses, dead host slots, and alias carve-out members
/// all collapse into that one cheap check. Slot-derived fields are
/// valid for `epoch` only; zones with rotating addresses need a
/// re-resolve when the epoch advances
/// (scan::ResolvedTargetTable::refresh).
struct ResolvedTarget {
  static constexpr std::uint32_t kNoZone = 0xffffffffu;
  static constexpr std::uint8_t kAliased = 1;  // aliased space, outside carve-out

  std::uint32_t zone = kNoZone;  // index into universe().zones()
  std::uint32_t slot = 0;
  std::uint64_t addr_hash = 0;  // set for kAliased rows only
  std::int32_t epoch = 0;
  std::uint8_t flags = 0;
  std::uint8_t service_mask = 0;
};

/// Struct-of-arrays view over a table of ResolvedTarget rows (owned by
/// scan::ResolvedTargetTable): the batched hot path reads only the
/// columns a predicate needs instead of striding over full records.
/// The per-address hash is only read for aliased rows, so it lives in
/// a dense side table instead of a per-row column: for rows with the
/// kAliased flag, `slot[i]` indexes `alias_hash`; honest rows carry
/// their host slot there and no hash at all.
struct ResolvedColumns {
  const std::uint32_t* zone = nullptr;
  const std::uint32_t* slot = nullptr;
  const std::uint64_t* alias_hash = nullptr;
  const std::uint8_t* flags = nullptr;
  const std::uint8_t* service_mask = nullptr;
};

/// The per-zone scalars the day/seq-dependent probe predicates read,
/// flattened out of ZoneConfig into one dense array indexed by zone so
/// the batch loop replaces a Zone pointer chase with one indexed load.
struct ZoneProbeParams {
  std::uint64_t key = 0;
  double loss = 0.0;
  double stability = 1.0;  // host_transient_up threshold by zone kind
  bool quic_flaky = false;
  bool nodes = false;  // Bitnodes-style permanent churn applies
};

/// How one APD candidate's fan-out is decided, fixed when it becomes a
/// candidate (NetworkSim::plan_fanout): the zone-trie cursor its
/// addresses resume from, and what the settled zone allows.
struct FanoutPlan {
  enum class Kind : std::uint8_t {
    kWalk,    // honest, unsettled, or flaky QUIC probed on UDP/443
    kNever,   // unrouted, or aliased space not serving the protocol
    kAlways,  // loss-free aliased space that no carve-out reaches
    kLanes,   // aliased space with loss, or that a carve-out reaches
  };
  Universe::ZoneCursor cursor;
  Kind kind = Kind::kWalk;
};

/// What every APD fan-out decision of one day shares. Address n under
/// a prefix is prefix.seeded_fanout_address(n, seeds[n]), probed at
/// seq n; in lossy aliased space it rolls its loss against
/// loss_salts[n] = hash64(day, n, protocol).
struct FanoutDay {
  static constexpr unsigned kAddresses = 16;
  using Seeds = std::array<std::uint64_t, kAddresses>;

  FanoutDay(const Seeds& seeds, int day, net::Protocol protocol);

  Seeds seeds;
  Seeds loss_salts{};
  int day;
  net::Protocol protocol;
};

class NetworkSim {
 public:
  explicit NetworkSim(const Universe& universe);

  /// One probe of `a` with `protocol` at (day, seq). Deterministic in
  /// all arguments plus the universe params, and safe to call from
  /// engine workers concurrently: the response is a pure function and
  /// the sent counter below is the only mutable state (relaxed adds;
  /// see the invariant comment at probes_sent_).
  ProbeResult probe(const ipv6::Address& a, net::Protocol protocol, int day,
                    unsigned seq = 0);

  /// The APD fan-out plan of `prefix` probed with `protocol`: its
  /// zone-trie cursor and, from the zone a settled cursor names, its
  /// kind. Depends on nothing but the prefix, the protocol and the
  /// universe, so a candidate plans once in its life. Pure.
  FanoutPlan plan_fanout(const ipv6::Prefix& prefix,
                         net::Protocol protocol) const;

  /// One candidate's fan-out decision: whether all 16 addresses of
  /// `day` under `prefix` answer, i.e. "all of probe(address n,
  /// day.protocol, day.day, n).responded". `plan` must equal
  /// plan_fanout(prefix, day.protocol). Derives no machine image,
  /// builds no address for a never or always plan, and walks a walk
  /// plan only up to its first silent address. Counts nothing and
  /// reads no mutable state, so engine workers call it concurrently.
  bool decide_fanout(const FanoutDay& day, const ipv6::Prefix& prefix,
                     const FanoutPlan& plan) const;

  /// decide_fanout for each of candidates [0, count): verdicts[i] = 1
  /// when all 16 of candidate i's addresses answer, else 0. One add
  /// of 16 * count to the calling lane's counter cell counts every
  /// probe: the measurement sends them all, only the simulation stops
  /// evaluating. Engine workers call it concurrently on disjoint runs.
  void decide_fanouts(const FanoutDay& day, const ipv6::Prefix* prefixes,
                      const FanoutPlan* plans, std::size_t count,
                      std::uint8_t* verdicts);

  /// Resolve `a` once at `day`'s rotation epoch. Pure and
  /// thread-safe; the record answers probe_resolved_mask for any
  /// (day, seq) whose epoch matches.
  ResolvedTarget resolve(const ipv6::Address& a, int day) const;

  /// Scan hot path: OR `mask_of(protocol)` into masks[rows[k]] when
  /// rows[k] responds — `masks` is a row-indexed column (e.g. a
  /// scan::ScanFrame's mask column), so retries and partial sweeps
  /// scatter into the same buffer without a position remap. Touches
  /// only the predicate columns through the branchless SIMD kernel
  /// (probe_kernel.h); the responded bit is identical to
  /// probe().responded (tests/test_probe_kernel.cpp).
  void probe_resolved_mask(const ResolvedColumns& t, const std::uint32_t* rows,
                           std::size_t count, net::Protocol protocol, int day,
                           unsigned seq, net::ProtocolMask* masks);

  /// Every probe sent so far: the sum of the lanes' counter cells.
  /// Exact once the adds it should see are ordered before it (a pool
  /// barrier, or the same thread).
  std::uint64_t probes_sent() const;

  const Universe& universe() const { return *universe_; }

 private:
  // Shared read-only with engine workers: both fields are fully
  // built in the constructor and never written again, so concurrent
  // probe calls need no synchronization to read them.
  const Universe* universe_;
  std::vector<ZoneProbeParams> zone_params_;
  // zone_params_ with thresholds in the kernel's integer form; same
  // construct-once / read-only-after discipline.
  std::vector<ZoneKernelParams> zone_kernel_;
  // Count `n` sent probes in the calling thread's lane cell.
  void count_probes(std::uint64_t n);
  // decide_fanout for a walk plan: address by address, up to the
  // first silent one.
  bool walk_fanout(const FanoutDay& day, const ipv6::Prefix& prefix,
                   const Universe::ZoneCursor& cursor) const;

  // The sent-probe counter, one cache line per writer lane
  // (obs::lane(): 0 for the coordinator, 1..N-1 for the engine
  // workers, which claim theirs at spawn), so the fan-out's workers,
  // each adding once per run of candidates (decide_fanouts), never
  // share a line. A lane at or past kCounterLanes folds onto cell
  // lane % kCounterLanes; the add stays an atomic fetch_add, so a
  // shared cell still counts exactly.
  // Relaxed ordering is sufficient by invariant: these cells are the
  // sim's ONLY mutable state, no other memory is published through
  // them, and nothing branches on intermediate values. Every reader
  // (probes_sent()) runs after the parallel_for return barrier,
  // whose acquire/release on Engine::remaining_ already orders the
  // adds. Atomicity alone keeps the sum exact; the schedule-
  // independent sum is what keeps output byte-identical across thread
  // counts. The first cell is aligned too, so no cell shares a line
  // with the read-only fields above, which every probe reads.
  static constexpr unsigned kCounterLanes = 16;
  struct alignas(64) CounterCell {
    std::atomic<std::uint64_t> sent{0};
  };
  std::array<CounterCell, kCounterLanes> probes_sent_;
};

}  // namespace v6h::netsim

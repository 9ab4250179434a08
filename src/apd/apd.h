#pragma once

// Multi-level aliased prefix detection (Section 5): probe 16 fan-out
// addresses per candidate prefix (one per nybble value below the
// prefix); a prefix where all 16 pseudo-random addresses answer is
// aliased. Daily verdicts are smoothed with a sliding window
// (Table 4) to suppress rate-limiting flicker.
//
// Steady-state allocation discipline: the persistent per-prefix state
// lives in flat open-addressing tables (util::FlatMap) instead of
// node containers, the sliding window is a fixed bit-ring instead of
// a deque, and every per-day transient (outcomes, crossing lists,
// transition lists) is a reusable member or a caller-owned list. A
// warm APD day — new prefixes included, once table capacity has
// warmed up — therefore performs zero heap allocations, which
// tests/test_day_alloc.cpp and the symlint noalloc policy's day-loop
// roots both enforce.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "util/flat_hash.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::apd {

struct ApdOptions {
  unsigned window_days = 3;   // verdict window (0 = today only)
  std::size_t min_targets = 2;  // hitlist addresses to make a candidate
  net::Protocol protocol = net::Protocol::kIcmp;
};

struct PrefixOutcome {
  ipv6::Prefix prefix;
  unsigned responded = 0;  // of the 16 fan-out probes
  bool aliased = false;    // today's raw outcome (pre-window)
};

/// Table-4 sliding-window smoother for one prefix: the windowed
/// verdict is "aliased" while any of the last window_days + 1 raw
/// outcomes was aliased, so a single rate-limited day cannot flip it,
/// and a prefix ages out after window_days + 1 quiet days.
///
/// The window is a fixed-size bit-ring — one inline word for windows
/// up to 64 days (every pipeline configuration), a bitset vector
/// sized once at construction beyond that (Table 4's campaign-length
/// sweeps) — so update() never allocates; the deque it replaced
/// allocated its map block at construction even for an empty history,
/// which was the day loop's dominant heap churn (two allocations per
/// candidate prefix per day, ~10k/day at bench scale).
class SlidingVerdict {
 public:
  explicit SlidingVerdict(unsigned window_days = 0)
      : window_(static_cast<std::uint32_t>(window_days) + 1) {
    if (window_ > 64) overflow_.assign((window_ + 63) / 64, 0);
  }

  /// Feed today's raw outcome; returns true when the windowed verdict
  /// flipped relative to the previous day. O(1): the verdict is
  /// "positives in window > 0", tracked by a counter, and the ring
  /// cursor replaces push/pop, so long windows (Table 4 explores up
  /// to the full campaign) cost the same as short ones.
  bool update(bool aliased_today) {
    std::uint64_t* words = overflow_.empty() ? &bits_ : overflow_.data();
    const std::uint64_t mask = std::uint64_t{1} << (cursor_ & 63);
    std::uint64_t& word = words[cursor_ >> 6];
    if (count_ == window_) {
      positives_ -= (word & mask) != 0;  // evict the aged-out day
    } else {
      ++count_;
    }
    word = aliased_today ? (word | mask) : (word & ~mask);
    positives_ += aliased_today;
    cursor_ = cursor_ + 1 == window_ ? 0 : cursor_ + 1;
    const bool verdict = positives_ > 0;
    const bool flipped = has_verdict_ && verdict != verdict_;
    verdict_ = verdict;
    has_verdict_ = true;
    return flipped;
  }

  bool verdict() const { return verdict_; }
  bool has_verdict() const { return has_verdict_; }

 private:
  std::uint64_t bits_ = 0;               // the ring, windows <= 64
  std::vector<std::uint64_t> overflow_;  // the ring, windows > 64
  std::uint32_t window_ = 1;             // ring size = window_days + 1
  std::uint32_t cursor_ = 0;             // next write position
  std::uint32_t count_ = 0;              // filled slots, saturates
  std::uint32_t positives_ = 0;
  bool verdict_ = false;
  bool has_verdict_ = false;
};

/// Persistent multi-level candidate counters for the delta-driven day
/// loop: instead of re-counting the whole hitlist x 5 levels every
/// day (AliasDetector::candidate_prefixes), fold in only the day's
/// new addresses. Each new address bumps its level prefixes straight
/// in the persistent table, and a prefix becomes a candidate on the
/// increment that brings it to min_targets. Counts only grow, so the
/// candidate set — and therefore every downstream probe — equals the
/// full recount.
///
/// Thread discipline: add_addresses runs entirely on the calling
/// (coordinator) thread; no field is shared with engine workers, and
/// none is safe to race from outside it.
class CandidateCounter {
 public:
  CandidateCounter(const netsim::BgpTable& bgp, std::size_t min_targets);

  /// Pre-size the counters for a universe whose cumulative hitlist
  /// will hold at most `max_addresses` unique addresses, so counting
  /// never grows a table mid-campaign (day-loop zero-alloc contract).
  void reserve_for(std::size_t max_addresses);

  /// Count `count` new (already deduplicated) addresses into the
  /// persistent per-prefix counters; returns the prefixes whose count
  /// crossed min_targets on this call, sorted. The sorted candidate
  /// list below absorbs them immediately. The returned reference is a
  /// reused scratch member, valid until the next call.
  const std::vector<ipv6::Prefix>& add_addresses(const ipv6::Address* addrs,
                                                 std::size_t count);

  /// All prefixes holding >= min_targets hitlist addresses, sorted —
  /// the same set (and order) AliasDetector::candidate_prefixes
  /// derives from the cumulative hitlist.
  const std::vector<ipv6::Prefix>& candidates() const { return candidates_; }

  std::size_t tracked_prefixes() const { return counts_.size(); }

 private:
  const netsim::BgpTable* bgp_;
  std::size_t min_targets_;
  util::FlatMap<ipv6::Prefix, std::size_t, ipv6::PrefixHash> counts_;
  std::vector<ipv6::Prefix> candidates_;
  // Per-call scratch, reused across calls.
  std::vector<ipv6::Prefix> crossed_;
  std::vector<ipv6::Prefix> merged_;
};

class AliasDetector {
 public:
  explicit AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options = {},
                         engine::Engine* engine = nullptr);

  /// Attach (or detach with nullptr) the observability layer: each
  /// run_day_on_prefixes batch gets an "apd_fanout" stage span and
  /// feeds the pipeline.apd_probes counter. Borrowed; never affects
  /// verdicts.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Pre-size the per-prefix verdict table (day-loop zero-alloc
  /// contract; see CandidateCounter::reserve_for).
  void reserve_prefixes(std::size_t max_prefixes);

  /// The 16 fan-out address seeds of `day`, one per nybble. They do
  /// not depend on the prefix, so run_day_on_prefixes derives them
  /// once per batch, on the calling thread.
  using FanoutSeeds = std::array<std::uint64_t, 16>;
  static FanoutSeeds fanout_seeds(int day);

  /// One candidate's fan-out: its 16 addresses under `prefix`, counted
  /// by one NetworkSim::count_responding batch. Reads no mutable
  /// detector state, so engine workers run it concurrently.
  PrefixOutcome probe_prefix(const ipv6::Prefix& prefix,
                             const FanoutSeeds& seeds, int day) const;

  /// One APD day over a candidate batch: probe (in index chunks on the
  /// engine workers when one is attached), then update windows in
  /// input order. `became_aliased` and `became_clean` are cleared and
  /// refilled, in batch order, with the verdict transitions relative
  /// to the effective previous verdict (a never-probed prefix counts
  /// as clean): exactly the delta a persistent AliasFilter applies in
  /// place. Both lists are caller-owned and keep their capacity, so a
  /// warm APD day is allocation-free.
  void run_day_on_prefixes(const std::vector<ipv6::Prefix>& prefixes, int day,
                           std::vector<ipv6::Prefix>* became_aliased,
                           std::vector<ipv6::Prefix>* became_clean);

  /// The last run_day_on_prefixes batch's raw fan-out outcomes, in
  /// batch order; valid until the next call.
  const std::vector<PrefixOutcome>& outcomes() const { return outcomes_; }

  /// Multi-level candidate enumeration from hitlist addresses: the
  /// announced prefix plus /48../112 aggregates holding enough targets.
  std::vector<ipv6::Prefix> candidate_prefixes(
      const std::vector<ipv6::Address>& targets) const;

  /// How often each prefix's windowed verdict changed (Table 4),
  /// materialized in sorted order from the flat per-prefix state.
  std::map<ipv6::Prefix, unsigned> verdict_flips() const;

  /// All prefixes whose current windowed verdict is "aliased", sorted.
  std::vector<ipv6::Prefix> current_aliased() const;

  const ApdOptions& options() const { return options_; }

 private:
  // Sliding window plus its Table-4 flip counter, stored inline in
  // the flat table (the separate std::map<Prefix, unsigned> it
  // replaces allocated a node per first flip).
  struct VerdictState {
    SlidingVerdict window;
    unsigned flips = 0;
  };

  netsim::NetworkSim* sim_;
  ApdOptions options_;
  engine::Engine* engine_;
  obs::Observability* obs_ = nullptr;
  util::FlatMap<ipv6::Prefix, VerdictState, ipv6::PrefixHash> state_;
  // Per-day scratch, reused across calls. Workers write disjoint
  // index-addressed outcomes_[i] between dispatch and the pool
  // barrier.
  std::vector<PrefixOutcome> outcomes_;
};

}  // namespace v6h::apd

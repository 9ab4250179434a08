#pragma once

// Multi-level aliased prefix detection (Section 5): probe 16 fan-out
// addresses per candidate prefix (one per nybble value below the
// prefix); a prefix where all 16 pseudo-random addresses answer is
// aliased. Daily verdicts are smoothed with a sliding window
// (Table 4) to suppress rate-limiting flicker.
//
// AliasDetector keeps one util::FlatMap slot per counted prefix (its
// hitlist count and, once it is a candidate, its candidate index).
// A candidate's index is fixed for the detector's life, and its
// verdict state lives in columns beside it: the fan-out plan (taken
// once, when it becomes a candidate: the zone-trie cursor and what
// its settled zone allows, NetworkSim::plan_fanout), the Table-4
// window (one 64-bit shift register, whose bit 0 is the day's raw
// outcome), the flip counter and a transition flag. The probe chunk
// that decides candidates [begin, end) makes one
// NetworkSim::decide_fanouts call for them and updates their column
// entries, so an APD day does no hash lookup. Every per-day transient
// (verdicts, transition lists) is a reusable column or a caller-owned
// list, so a warm APD day, new prefixes included once table capacity
// has warmed up, performs zero heap allocations.
// tests/test_day_alloc.cpp and the symlint noalloc policy's day-loop
// roots both enforce that.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "util/flat_hash.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::apd {

struct ApdOptions {
  /// Verdict window: a prefix stays aliased while any of its last
  /// window_days + 1 raw outcomes was (0 = today only). At most
  /// SlidingVerdict::kMaxWindowDays (63), so the window fits one
  /// 64-bit register; the AliasDetector constructor aborts above it.
  unsigned window_days = 3;
  std::size_t min_targets = 2;  // hitlist addresses to make a candidate
  net::Protocol protocol = net::Protocol::kIcmp;
};

/// Table-4 sliding-window smoother for one prefix: the windowed
/// verdict is "aliased" while any of the last window_days + 1 raw
/// outcomes was aliased, so a single rate-limited day cannot flip it,
/// and a prefix ages out after window_days + 1 quiet days.
///
/// The window is one 64-bit shift register: bit d holds the outcome
/// of d updates ago, today's outcome shifts in at bit 0, and the mask
/// drops the day that left the window. The verdict is "any bit set",
/// and update() is O(1) and never allocates.
class SlidingVerdict {
 public:
  /// The longest window one register holds (window_days + 1 <= 64).
  static constexpr unsigned kMaxWindowDays = 63;

  /// Requires window_days <= kMaxWindowDays: a wider window does not
  /// fit the register, and its mask shift would be undefined.
  explicit SlidingVerdict(unsigned window_days = 0)
      : span_(static_cast<std::uint8_t>(window_days + 1)) {}

  /// Feed today's raw outcome; returns true when the windowed verdict
  /// flipped relative to the previous day.
  bool update(bool aliased_today) {
    const bool previous = verdict();
    bits_ = ((bits_ << 1) | std::uint64_t{aliased_today}) &
            (~std::uint64_t{0} >> (64 - span_));
    const bool flipped = has_verdict_ && verdict() != previous;
    has_verdict_ = true;
    return flipped;
  }

  bool verdict() const { return bits_ != 0; }
  bool has_verdict() const { return has_verdict_; }
  /// The last update's raw outcome (false before the first update).
  bool last_outcome() const { return (bits_ & 1) != 0; }

 private:
  std::uint64_t bits_ = 0;
  std::uint8_t span_ = 1;  // window_days + 1, in 1..64
  bool has_verdict_ = false;
};

class AliasDetector {
 public:
  /// Aborts when options.window_days exceeds
  /// SlidingVerdict::kMaxWindowDays.
  explicit AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options = {},
                         engine::Engine* engine = nullptr);

  /// Attach (or detach with nullptr) the observability layer: each
  /// run_day gets an "apd_fanout" stage span and feeds the
  /// pipeline.apd_probes counter. Borrowed; never affects verdicts.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Pre-size the per-prefix table and the candidate columns for a
  /// universe whose cumulative hitlist will hold at most
  /// `max_addresses` unique addresses, so neither counting nor an APD
  /// day grows a container mid-campaign (day-loop zero-alloc
  /// contract).
  void reserve_for(std::size_t max_addresses);

  /// The most candidates a hitlist of `max_addresses` unique addresses
  /// can yield, which also bounds every list holding at most one entry
  /// per candidate (the verdict columns, a day's verdict transitions).
  std::size_t candidate_bound(std::size_t max_addresses) const;

  /// Count `count` new (already deduplicated) addresses into the
  /// per-prefix table. A prefix is appended to candidates() on the
  /// increment that brings its count to min_targets, by address and
  /// then in level order (/48, /64, /96, /112, announcement), and
  /// plans its fan-out then, once (in index chunks on the engine
  /// workers when one is attached and the crossings are many, as on a
  /// first day). Counts only grow, so candidates() always equals
  /// candidate_prefixes() over every address counted so far, in the
  /// same order.
  void add_addresses(const ipv6::Address* addrs, std::size_t count);

  /// Make an explicit list into candidates (bench_table4, bench_fig5):
  /// each prefix without a candidate index is appended and planned
  /// exactly as a crossing in add_addresses is; its count is left
  /// alone. A prefix that is already a candidate is skipped.
  void admit(const std::vector<ipv6::Prefix>& prefixes);

  /// Every candidate, in the order it became one: the daily APD
  /// batch. Candidate i keeps index i for the detector's life.
  const std::vector<ipv6::Prefix>& candidates() const { return candidates_; }

  /// Each candidate's fan-out plan, aligned with candidates():
  /// plans()[i] equals sim.plan_fanout(candidates()[i],
  /// options().protocol). A plan depends on nothing but the prefix,
  /// the protocol and the universe, which never changes once built, so
  /// it stays valid for the detector's life: every day decides a never
  /// or always candidate without building an address, and resumes the
  /// zone walk at the plan's cursor for the rest.
  const std::vector<netsim::FanoutPlan>& plans() const { return plans_; }

  /// The 16 fan-out address seeds of `day`, one per nybble. They do
  /// not depend on the prefix, so each day derives them once, on the
  /// calling thread.
  using FanoutSeeds = netsim::FanoutDay::Seeds;
  static FanoutSeeds fanout_seeds(int day);

  /// The APD day over candidates(), each decided from its plan. The
  /// chunk that decides candidate i (on the engine workers when one is
  /// attached) also updates its window and flip count.
  /// `became_aliased` and `became_clean` are cleared and refilled,
  /// ascending, with the verdict transitions relative to the
  /// effective previous verdict (a never-probed prefix counts as
  /// clean): the +1 and -1 steps of the pipeline's per-row aliased
  /// counts. Both lists are caller-owned and keep their capacity, so a
  /// warm APD day is allocation-free.
  void run_day(int day, std::vector<ipv6::Prefix>* became_aliased,
               std::vector<ipv6::Prefix>* became_clean);

  /// Candidate i's raw fan-out verdict on the last run_day (true = all
  /// 16 answered), read from bit 0 of its window; a candidate added
  /// since then reads false. Requires i < candidates().size().
  bool outcome(std::size_t i) const { return windows_[i].last_outcome(); }

  /// Multi-level candidate enumeration from hitlist addresses: the
  /// announced prefix plus /48../112 aggregates holding enough
  /// targets, in the order add_addresses would make them candidates.
  /// A full recount over `targets` that reads none of the per-prefix
  /// table; the day oracle compares candidates() against it.
  std::vector<ipv6::Prefix> candidate_prefixes(
      const std::vector<ipv6::Address>& targets) const;

  /// How often each candidate's windowed verdict changed (Table 4).
  std::map<ipv6::Prefix, unsigned> verdict_flips() const;

  /// All prefixes whose current windowed verdict is "aliased", sorted.
  std::vector<ipv6::Prefix> current_aliased() const;

  /// current_aliased().size(), kept current by every run_day.
  std::size_t aliased_count() const { return aliased_count_; }

  /// How many of `a`'s level prefixes (the ones add_addresses counts
  /// it into: its /48../112 aggregates and its announcement) have an
  /// aliased windowed verdict. Read-only, so engine workers call it
  /// concurrently between days.
  ///
  /// This is exactly the number of aliased prefixes containing `a`
  /// when every candidate came from add_addresses (the pipeline) and
  /// no announcement lies inside another. Then every aliased prefix is
  /// a /48../112 aggregate or the announcement of some counted
  /// address; an aggregate containing `a` is `a`'s own at that length,
  /// and an announcement containing `a` is the one announcement
  /// covering `a`.
  unsigned aliased_cover(const ipv6::Address& a) const;

  const ApdOptions& options() const { return options_; }

 private:
  // One counted (or admitted) prefix's table slot. Prefixes admitted
  // from an explicit list keep count 0.
  struct Slot {
    static constexpr std::uint32_t kNoIndex = 0xffffffffu;
    std::uint32_t count = 0;         // counted hitlist addresses inside
    std::uint32_t index = kNoIndex;  // into the candidate columns
  };

  // Append `prefix`, whose slot is `slot`, to candidates_.
  void append(const ipv6::Prefix& prefix, Slot& slot);

  // Grow every other column to candidates_.size(), the new entries
  // [first, size) fresh, and plan the new candidates' fan-outs.
  void grow_columns(std::size_t first);

  // min_targets 0 counts as 1: a fresh entry starts at 0, which would
  // otherwise read as "already a candidate" and never cross, while
  // the full recount admits every counted prefix either way.
  std::size_t min_targets() const {
    return std::max<std::size_t>(1, options_.min_targets);
  }

  netsim::NetworkSim* sim_;
  ApdOptions options_;
  engine::Engine* engine_;
  obs::Observability* obs_ = nullptr;
  util::FlatMap<ipv6::Prefix, Slot, ipv6::PrefixHash> state_;
  // The candidate columns, all indexed by candidate. They grow only
  // on the coordinator (add_addresses, admit). Between run_day's
  // dispatch and its return barrier, the chunk owning index i is the
  // only writer of windows_[i], flips_[i] and transitions_[i] (first
  // the raw verdict, then nonzero = the windowed verdict changed
  // today); the coordinator reads them after the barrier.
  std::vector<ipv6::Prefix> candidates_;
  std::vector<netsim::FanoutPlan> plans_;
  std::vector<SlidingVerdict> windows_;
  std::vector<std::uint32_t> flips_;
  std::vector<std::uint8_t> transitions_;
  std::size_t aliased_count_ = 0;  // candidates whose verdict is aliased
};

}  // namespace v6h::apd

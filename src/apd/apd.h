#pragma once

// Multi-level aliased prefix detection (Section 5): probe 16 fan-out
// addresses per candidate prefix (one per nybble value below the
// prefix); a prefix where all 16 pseudo-random addresses answer is
// aliased. Daily verdicts are smoothed with a sliding window
// (Table 4) to suppress rate-limiting flicker.
//
// One table per detector: AliasDetector keeps everything it knows
// about a prefix (its hitlist count, its verdict window, its Table-4
// flip counter) in one util::FlatMap slot, and the window is one
// 64-bit shift register. Each candidate also keeps its zone-trie
// cursor beside it, taken once when it crosses min_targets. Every
// per-day transient (verdicts, crossing lists, transition lists) is a
// reusable member or a caller-owned list, so a warm APD day, new
// prefixes included once table capacity has warmed up, performs zero
// heap allocations. tests/test_day_alloc.cpp and the symlint noalloc
// policy's day-loop roots both enforce that.

#include <algorithm>
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
  /// run_day or run_day_on_prefixes batch gets an "apd_fanout" stage
  /// span and feeds the pipeline.apd_probes counter. Borrowed; never
  /// affects verdicts.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Pre-size the per-prefix table, the candidate and cursor columns
  /// and the per-day scratch for a universe whose cumulative hitlist
  /// will hold at most `max_addresses` unique addresses, so neither
  /// counting nor an APD day grows a container mid-campaign (day-loop
  /// zero-alloc contract).
  void reserve_for(std::size_t max_addresses);

  /// The most candidates a hitlist of `max_addresses` unique addresses
  /// can yield, which also bounds every list holding at most one entry
  /// per candidate (outcomes(), a day's verdict transitions).
  std::size_t candidate_bound(std::size_t max_addresses) const;

  /// Count `count` new (already deduplicated) addresses into the
  /// per-prefix table. A prefix joins candidates() on the increment
  /// that brings its count to min_targets, and descends the zone trie
  /// then, once (in index chunks on the engine workers when one is
  /// attached and the crossings are many, as on a first day). Counts
  /// only grow, so candidates() always equals candidate_prefixes()
  /// over every address counted so far, in the same order.
  void add_addresses(const ipv6::Address* addrs, std::size_t count);

  /// All prefixes holding >= min_targets counted addresses, sorted:
  /// the pipeline's daily APD batch.
  const std::vector<ipv6::Prefix>& candidates() const { return candidates_; }

  /// Each candidate's zone-trie cursor, aligned with candidates():
  /// cursors()[i] equals universe().zone_cursor(candidates()[i]). The
  /// zone trie never changes after the universe is built, so a cursor
  /// stays valid for the detector's life, and a settled one (the
  /// whole candidate in one zone or in none) lets all_respond decide
  /// a loss-free aliased or unrouted candidate without building its
  /// 16 addresses, every day.
  const std::vector<netsim::Universe::ZoneCursor>& cursors() const {
    return cursors_;
  }

  /// The 16 fan-out address seeds of `day`, one per nybble. They do
  /// not depend on the prefix, so each batch derives them once, on
  /// the calling thread.
  using FanoutSeeds = std::array<std::uint64_t, 16>;
  static FanoutSeeds fanout_seeds(int day);

  /// One candidate's fan-out: the raw verdict (all 16 answered, before
  /// the window) of one NetworkSim::all_respond decision over its 16
  /// addresses under `prefix`, resuming the zone walk at `cursor`
  /// (universe().zone_cursor(prefix)). It stops evaluating at the
  /// first silent address but counts all 16 probes. Reads no mutable
  /// detector state, so engine workers run it concurrently.
  bool probe_prefix(const ipv6::Prefix& prefix,
                    const netsim::Universe::ZoneCursor& cursor,
                    const FanoutSeeds& seeds, int day) const;

  /// The pipeline's APD day over candidates(), each decided from its
  /// cached cursor: probe (in index chunks on the engine workers when
  /// one is attached), then update windows in candidate order.
  /// `became_aliased` and `became_clean` are cleared and refilled, in
  /// batch order, with the verdict transitions relative to the
  /// effective previous verdict (a never-probed prefix counts as
  /// clean): the +1 and -1 steps of the pipeline's per-row aliased
  /// counts. Both lists are caller-owned and keep their capacity, so a
  /// warm APD day is allocation-free.
  void run_day(int day, std::vector<ipv6::Prefix>* became_aliased,
               std::vector<ipv6::Prefix>* became_clean);

  /// run_day over an explicit batch, which need not be candidates
  /// (bench_table4, bench_fig5): each prefix descends the zone trie
  /// first, then the batch runs the same loop run_day does.
  void run_day_on_prefixes(const std::vector<ipv6::Prefix>& prefixes, int day,
                           std::vector<ipv6::Prefix>* became_aliased,
                           std::vector<ipv6::Prefix>* became_clean);

  /// The last batch's raw fan-out verdicts, one byte each (nonzero =
  /// all 16 answered), aligned with that batch: with candidates()
  /// after run_day, with the caller's list after run_day_on_prefixes.
  /// Valid until the next call.
  const std::vector<char>& outcomes() const { return outcomes_; }

  /// Multi-level candidate enumeration from hitlist addresses: the
  /// announced prefix plus /48../112 aggregates holding enough targets.
  /// A full recount over `targets` that reads none of the per-prefix
  /// table; the day oracle compares candidates() against it.
  std::vector<ipv6::Prefix> candidate_prefixes(
      const std::vector<ipv6::Address>& targets) const;

  /// How often each prefix's windowed verdict changed (Table 4),
  /// materialized in sorted order from the flat per-prefix state.
  std::map<ipv6::Prefix, unsigned> verdict_flips() const;

  /// All prefixes whose current windowed verdict is "aliased", sorted.
  std::vector<ipv6::Prefix> current_aliased() const;

  /// current_aliased().size(), kept current by every batch.
  std::size_t aliased_count() const { return aliased_count_; }

  /// How many of `a`'s level prefixes (the ones add_addresses counts
  /// it into: its /48../112 aggregates and its announcement) have an
  /// aliased windowed verdict. Read-only, so engine workers call it
  /// concurrently between batches.
  ///
  /// This is exactly the number of aliased prefixes containing `a`
  /// when only candidates were probed (the pipeline's run_day) and no
  /// announcement lies inside another. Then every aliased prefix is a
  /// /48../112 aggregate or the announcement of some counted address;
  /// an aggregate containing `a` is `a`'s own at that length, and an
  /// announcement containing `a` is the one announcement covering `a`.
  unsigned aliased_cover(const ipv6::Address& a) const;

  const ApdOptions& options() const { return options_; }

 private:
  // Everything the detector knows about one prefix. A prefix is
  // usually counted (add_addresses) before it is first probed;
  // prefixes probed in an explicit batch keep count 0.
  struct PrefixState {
    std::uint32_t count = 0;  // counted hitlist addresses inside
    std::uint32_t flips = 0;  // Table-4 verdict changes
    SlidingVerdict window;
  };

  // Find or create `prefix`'s entry; a new one gets this detector's
  // window length.
  PrefixState& state_of(const ipv6::Prefix& prefix);

  // descents_[i] = universe().zone_cursor(prefixes[i]) for i < n.
  void descend(const ipv6::Prefix* prefixes, std::size_t n);

  // The one APD batch loop: decide prefixes[i] from cursors[i] into
  // outcomes_[i], then merge the windows serially in batch order.
  void run_batch(const ipv6::Prefix* prefixes,
                 const netsim::Universe::ZoneCursor* cursors, std::size_t n,
                 int day, std::vector<ipv6::Prefix>* became_aliased,
                 std::vector<ipv6::Prefix>* became_clean);

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
  util::FlatMap<ipv6::Prefix, PrefixState, ipv6::PrefixHash> state_;
  // Two aligned columns: the sorted candidates and their cursors.
  // Written only by add_addresses on the coordinator; run_day's
  // workers read them after dispatch.
  std::vector<ipv6::Prefix> candidates_;
  std::vector<netsim::Universe::ZoneCursor> cursors_;
  // Scratch, reused across calls: the prefixes one add_addresses call
  // brought to min_targets, the cursors of the last descend() call,
  // and the last batch's raw verdicts. Workers write disjoint
  // index-addressed descents_[i] and outcomes_[i] between dispatch
  // and the pool barrier; everything else here runs on the calling
  // (coordinator) thread.
  std::vector<ipv6::Prefix> crossed_;
  std::vector<netsim::Universe::ZoneCursor> descents_;
  std::vector<char> outcomes_;
  std::size_t aliased_count_ = 0;  // prefixes whose verdict is aliased
};

}  // namespace v6h::apd

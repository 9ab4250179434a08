#include "apd/apd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/obs.h"
#include "util/rng.h"

namespace v6h::apd {

using ipv6::Address;
using ipv6::Prefix;

namespace {

// The multi-level aggregation of Section 5.2: fn(prefix) once for
// each of an address's /48../112 aggregates and its announced prefix
// (unless that coincides with a fixed level, which must not count the
// address twice). Shared by the full recount, add_addresses and
// aliased_cover so the three can never drift apart.
constexpr std::uint8_t kLevels[] = {48, 64, 96, 112};

template <typename Fn>
void for_each_level_prefix(const Address& a, const netsim::BgpTable& bgp,
                           Fn&& fn) {
  for (const auto level : kLevels) fn(Prefix(a, level));
  if (const auto* announcement = bgp.lookup(a)) {
    const std::uint8_t length = announcement->prefix.length();
    bool already_counted = false;
    for (const auto level : kLevels) already_counted |= level == length;
    if (!already_counted) fn(announcement->prefix);
  }
}

// Prefixes the per-prefix table holds for a hitlist of
// `max_addresses`: every counted prefix (the pipeline probes only
// counted ones). Measured campaigns count 1.81 prefixes per address
// at scale 0.3 and 1.43 at scale 3, so 4x bounds it with room.
std::size_t tracked_bound(std::size_t max_addresses) {
  return max_addresses * 4 + 64;
}

// Plans per engine chunk. A few crossings on a warm day stay inline
// (parallel_for runs a range up to one grain on the caller); a first
// day's thousands spread over the workers.
constexpr std::size_t kPlanGrain = 256;

}  // namespace

AliasDetector::AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options,
                             engine::Engine* engine)
    : sim_(&sim), options_(options), engine_(engine) {
  // The table holds ~1.4-1.8 slots per hitlist address, reserved at
  // under 2/3 load and touched by every construction: keep it small.
  static_assert(sizeof(decltype(state_)::value_type) <= 32);
  if (options_.window_days > SlidingVerdict::kMaxWindowDays) {
    std::fprintf(stderr, "AliasDetector: window_days %u exceeds the maximum %u\n",
                 options_.window_days, SlidingVerdict::kMaxWindowDays);
    std::abort();
  }
}

std::size_t AliasDetector::candidate_bound(std::size_t max_addresses) const {
  // Every unique address counts into at most 5 level prefixes, and a
  // candidate holds at least min_targets of those counts; never more
  // candidates than the table tracks.
  return std::min(tracked_bound(max_addresses),
                  5 * max_addresses / min_targets() + 64);
}

void AliasDetector::reserve_for(std::size_t max_addresses) {
  const std::size_t candidates = candidate_bound(max_addresses);
  state_.reserve(tracked_bound(max_addresses));
  candidates_.reserve(candidates);
  plans_.reserve(candidates);
  windows_.reserve(candidates);
  flips_.reserve(candidates);
  transitions_.reserve(candidates);
}

void AliasDetector::append(const Prefix& prefix, Slot& slot) {
  slot.index = static_cast<std::uint32_t>(candidates_.size());
  candidates_.push_back(prefix);
}

void AliasDetector::add_addresses(const Address* addrs, std::size_t count) {
  // Counts only ever grow, one per address and level, so a prefix
  // crosses min_targets exactly once: on the increment that reaches
  // it. The crossing order is a pure function of the row order.
  const std::size_t threshold = min_targets();
  const netsim::BgpTable& bgp = sim_->universe().bgp();
  const std::size_t first = candidates_.size();
  for (std::size_t i = 0; i < count; ++i) {
    for_each_level_prefix(addrs[i], bgp, [&](const Prefix& prefix) {
      Slot& slot = state_.try_emplace(prefix).first->second;
      if (++slot.count == threshold && slot.index == Slot::kNoIndex) {
        append(prefix, slot);
      }
    });
  }
  grow_columns(first);
}

void AliasDetector::admit(const std::vector<Prefix>& prefixes) {
  const std::size_t first = candidates_.size();
  for (const Prefix& prefix : prefixes) {
    Slot& slot = state_.try_emplace(prefix).first->second;
    if (slot.index == Slot::kNoIndex) append(prefix, slot);
  }
  grow_columns(first);
}

void AliasDetector::grow_columns(std::size_t first) {
  const std::size_t n = candidates_.size();
  plans_.resize(n);
  windows_.resize(n, SlidingVerdict(options_.window_days));
  flips_.resize(n, 0);
  transitions_.resize(n, 0);
  // A candidate's plan depends on nothing but its prefix and the
  // protocol, so it is made once, here, and kept for every later day.
  auto plan_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = first + begin; i < first + end; ++i) {
      plans_[i] = sim_->plan_fanout(candidates_[i], options_.protocol);
    }
  };
  engine::parallel_for(engine_, n - first, kPlanGrain, plan_range);
}

AliasDetector::FanoutSeeds AliasDetector::fanout_seeds(int day) {
  FanoutSeeds seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xA9D));
  }
  return seeds;
}

void AliasDetector::run_day(int day, std::vector<Prefix>* became_aliased,
                            std::vector<Prefix>* became_clean) {
  // Covers the fan-out probes AND the serial transition pass; purely
  // observational (lane-local stores + clock reads), so verdicts are
  // identical with obs_ attached or null.
  obs::StageSpan span(obs_, obs::Stage::kApd);
  became_aliased->clear();
  became_clean->clear();
  const std::size_t n = candidates_.size();
  const netsim::FanoutDay fanout(fanout_seeds(day), day, options_.protocol);
  // Each chunk decides its candidates in one call, which leaves the raw
  // verdicts in transitions_, and then turns each into its window
  // update and transition flag: disjoint index-addressed writes, so
  // the result does not depend on scheduling.
  auto probe_range = [&](std::size_t begin, std::size_t end) {
    sim_->decide_fanouts(fanout, &candidates_[begin], &plans_[begin],
                         end - begin, &transitions_[begin]);
    for (std::size_t i = begin; i < end; ++i) {
      const bool aliased_today = transitions_[i] != 0;
      SlidingVerdict& window = windows_[i];
      // The effective previous verdict — a prefix without one yet is
      // clean, so a first-day aliased verdict is a became_aliased
      // event even though the Table-4 flip counter (which measures
      // verdict *instability*) does not count it.
      const bool previous = window.has_verdict() && window.verdict();
      flips_[i] += window.update(aliased_today);
      transitions_[i] = window.verdict() != previous;
    }
  };
  engine::parallel_for(engine_, n, 4, probe_range);
  for (std::size_t i = 0; i < n; ++i) {
    if (transitions_[i] == 0) continue;
    const bool aliased = windows_[i].verdict();
    (aliased ? became_aliased : became_clean)->push_back(candidates_[i]);
    aliased_count_ = aliased ? aliased_count_ + 1 : aliased_count_ - 1;
  }
  // About 19 transitions a day; the lists are documented ascending.
  std::sort(became_aliased->begin(), became_aliased->end());
  std::sort(became_clean->begin(), became_clean->end());
  if (obs_ != nullptr) obs_->registry().add(obs_->core().apd_probes, 16 * n);
}

std::vector<Prefix> AliasDetector::candidate_prefixes(
    const std::vector<Address>& targets) const {
  std::unordered_map<Prefix, std::size_t, ipv6::PrefixHash> counts;
  const auto& bgp = sim_->universe().bgp();
  std::vector<Prefix> out;
  for (const auto& a : targets) {
    for_each_level_prefix(a, bgp, [&](const Prefix& prefix) {
      if (++counts[prefix] == min_targets()) out.push_back(prefix);
    });
  }
  return out;
}

unsigned AliasDetector::aliased_cover(const Address& a) const {
  unsigned cover = 0;
  for_each_level_prefix(a, sim_->universe().bgp(), [&](const Prefix& prefix) {
    const Slot* slot = state_.find(prefix);
    cover += slot != nullptr && slot->index != Slot::kNoIndex &&
             windows_[slot->index].verdict();
  });
  return cover;
}

std::map<Prefix, unsigned> AliasDetector::verdict_flips() const {
  std::map<Prefix, unsigned> out;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (flips_[i] > 0) out.emplace(candidates_[i], flips_[i]);
  }
  return out;
}

std::vector<Prefix> AliasDetector::current_aliased() const {
  std::vector<Prefix> out;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (windows_[i].verdict()) out.push_back(candidates_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace v6h::apd

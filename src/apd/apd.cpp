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

// Descents per engine chunk. A few crossings on a warm day stay
// inline (parallel_for runs a range up to one grain on the caller);
// a first day's thousands spread over the workers.
constexpr std::size_t kDescentGrain = 256;

}  // namespace

AliasDetector::AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options,
                             engine::Engine* engine)
    : sim_(&sim), options_(options), engine_(engine) {
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
  cursors_.reserve(candidates);
  crossed_.reserve(candidates);
  descents_.reserve(candidates);
  outcomes_.reserve(candidates);
}

AliasDetector::PrefixState& AliasDetector::state_of(const Prefix& prefix) {
  auto [entry, inserted] = state_.try_emplace(prefix);
  if (inserted) entry->second.window = SlidingVerdict(options_.window_days);
  return entry->second;
}

void AliasDetector::add_addresses(const Address* addrs, std::size_t count) {
  if (count == 0) return;
  // Counts only ever grow, one per address and level, so a prefix
  // crosses min_targets exactly once: on the increment that reaches
  // it. The crossing set is a pure function of the address set, and
  // sorting makes its order canonical too.
  const std::size_t threshold = min_targets();
  const netsim::BgpTable& bgp = sim_->universe().bgp();
  crossed_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    for_each_level_prefix(addrs[i], bgp, [&](const Prefix& prefix) {
      if (++state_of(prefix).count == threshold) crossed_.push_back(prefix);
    });
  }
  std::sort(crossed_.begin(), crossed_.end());
  // A candidate's zone-trie path depends on nothing but its prefix, so
  // it descends once, here, and keeps the cursor for every later day.
  descend(crossed_.data(), crossed_.size());
  // Merge both columns in place, from the back: they grow into their
  // reserved capacity, and every write lands at or above the slot it
  // reads, so no second buffer is needed (std::merge forbids an output
  // that overlaps its input). Once the crossings run out, the
  // remaining candidates are already in place.
  std::size_t kept = candidates_.size();
  std::size_t added = crossed_.size();
  std::size_t out = kept + added;
  candidates_.resize(out);
  cursors_.resize(out);
  while (added > 0) {
    --out;
    if (kept > 0 && crossed_[added - 1] < candidates_[kept - 1]) {
      --kept;
      candidates_[out] = candidates_[kept];
      cursors_[out] = cursors_[kept];
    } else {
      --added;
      candidates_[out] = crossed_[added];
      cursors_[out] = descents_[added];
    }
  }
}

void AliasDetector::descend(const Prefix* prefixes, std::size_t n) {
  descents_.resize(n);
  const netsim::Universe& universe = sim_->universe();
  auto descend_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      descents_[i] = universe.zone_cursor(prefixes[i]);
    }
  };
  if (engine_ != nullptr) {
    engine_->parallel_for(n, kDescentGrain, descend_range);
  } else {
    descend_range(0, n);
  }
}

AliasDetector::FanoutSeeds AliasDetector::fanout_seeds(int day) {
  FanoutSeeds seeds;
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    seeds[nybble] =
        Prefix::fanout_seed(nybble, util::hash64(day, nybble, 0xA9D));
  }
  return seeds;
}

bool AliasDetector::probe_prefix(const Prefix& prefix,
                                 const netsim::Universe::ZoneCursor& cursor,
                                 const FanoutSeeds& seeds, int day) const {
  // Fan-out addresses are salted per day, so only the zone-trie path
  // to the prefix carries across days, and the caller holds it. Within
  // a day the 16 addresses resume that walk; address n goes out at
  // seq n.
  return sim_->all_respond(prefix, cursor, seeds.data(), seeds.size(),
                           options_.protocol, day);
}

void AliasDetector::run_day(int day, std::vector<Prefix>* became_aliased,
                            std::vector<Prefix>* became_clean) {
  run_batch(candidates_.data(), cursors_.data(), candidates_.size(), day,
            became_aliased, became_clean);
}

void AliasDetector::run_day_on_prefixes(const std::vector<Prefix>& prefixes,
                                        int day,
                                        std::vector<Prefix>* became_aliased,
                                        std::vector<Prefix>* became_clean) {
  descend(prefixes.data(), prefixes.size());
  run_batch(prefixes.data(), descents_.data(), prefixes.size(), day,
            became_aliased, became_clean);
}

void AliasDetector::run_batch(const Prefix* prefixes,
                              const netsim::Universe::ZoneCursor* cursors,
                              std::size_t n, int day,
                              std::vector<Prefix>* became_aliased,
                              std::vector<Prefix>* became_clean) {
  // Covers the fan-out probes AND the serial window merge; purely
  // observational (lane-local stores + clock reads), so verdicts are
  // identical with obs_ attached or null.
  obs::StageSpan span(obs_, obs::Stage::kApd);
  became_aliased->clear();
  became_clean->clear();
  outcomes_.resize(n);
  // Contiguous index chunks: a sorted candidate batch keeps each chunk
  // inside one region of the address space. Verdicts are
  // index-addressed, so the merge below reads them back in input order
  // regardless of scheduling.
  const FanoutSeeds seeds = fanout_seeds(day);
  auto probe_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      outcomes_[i] = probe_prefix(prefixes[i], cursors[i], seeds, day);
    }
  };
  if (engine_ != nullptr) {
    engine_->parallel_for(n, 4, probe_range);
  } else {
    probe_range(0, n);
  }
  // Deterministic merge: windows update serially in input order.
  for (std::size_t i = 0; i < n; ++i) {
    const Prefix& prefix = prefixes[i];
    PrefixState& state = state_of(prefix);
    SlidingVerdict& window = state.window;
    // The effective previous verdict — a prefix without one yet is
    // clean, so a first-day aliased verdict is a became_aliased event
    // even though the Table-4 flip counter (which measures verdict
    // *instability*) does not count it.
    const bool previous = window.has_verdict() && window.verdict();
    if (window.update(outcomes_[i] != 0)) ++state.flips;
    const bool current = window.verdict();
    if (current != previous) {
      (current ? became_aliased : became_clean)->push_back(prefix);
      aliased_count_ = current ? aliased_count_ + 1 : aliased_count_ - 1;
    }
  }
  if (obs_ != nullptr) obs_->registry().add(obs_->core().apd_probes, 16 * n);
}

std::vector<Prefix> AliasDetector::candidate_prefixes(
    const std::vector<Address>& targets) const {
  std::unordered_map<Prefix, std::size_t, ipv6::PrefixHash> counts;
  const auto& bgp = sim_->universe().bgp();
  for (const auto& a : targets) {
    for_each_level_prefix(a, bgp, [&](const Prefix& prefix) { ++counts[prefix]; });
  }
  std::vector<Prefix> out;
  // order_lint: allow(sorted-after: membership filter, out is sorted below)
  for (const auto& [prefix, count] : counts) {
    if (count >= options_.min_targets) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

unsigned AliasDetector::aliased_cover(const Address& a) const {
  unsigned cover = 0;
  for_each_level_prefix(a, sim_->universe().bgp(), [&](const Prefix& prefix) {
    const PrefixState* state = state_.find(prefix);
    cover += state != nullptr && state->window.verdict();
  });
  return cover;
}

std::map<Prefix, unsigned> AliasDetector::verdict_flips() const {
  std::map<Prefix, unsigned> out;
  // order_lint: allow(sorted-after: emplaced into an ordered std::map keyed by prefix)
  for (const auto& [prefix, state] : state_) {
    if (state.flips > 0) out.emplace(prefix, state.flips);
  }
  return out;
}

std::vector<Prefix> AliasDetector::current_aliased() const {
  std::vector<Prefix> out;
  // order_lint: allow(sorted-after: membership filter, out is sorted below)
  for (const auto& [prefix, state] : state_) {
    if (state.window.verdict()) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace v6h::apd

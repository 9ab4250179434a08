#include "apd/apd.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "obs/obs.h"
#include "scan/scan_frame.h"
#include "util/rng.h"

namespace v6h::apd {

using ipv6::Address;
using ipv6::Prefix;

namespace {

// The multi-level aggregation of Section 5.2: every hitlist address
// counts toward its /48../112 aggregates plus its announced prefix
// (unless that coincides with a fixed level, which must not count the
// address twice). Shared by the daily full recount and the
// incremental counter so the two can never drift apart.
constexpr std::uint8_t kLevels[] = {48, 64, 96, 112};

template <typename Map>
void count_address_levels(const Address& a, const netsim::BgpTable& bgp,
                          Map& counts) {
  for (const auto level : kLevels) {
    ++counts[Prefix(a, level)];
  }
  if (const auto* announcement = bgp.lookup(a)) {
    const std::uint8_t length = announcement->prefix.length();
    bool already_counted = false;
    for (const auto level : kLevels) already_counted |= level == length;
    if (!already_counted) ++counts[announcement->prefix];
  }
}

}  // namespace

CandidateCounter::CandidateCounter(const netsim::BgpTable& bgp,
                                   std::size_t min_targets,
                                   engine::Engine* engine)
    // min_targets 0 behaves like 1: the full recount admits every
    // *counted* prefix (counts start at 1), and the crossing check
    // below must agree — a fresh counter entry starts at 0, which
    // would otherwise read as "already a candidate" and never cross.
    : bgp_(&bgp),
      min_targets_(std::max<std::size_t>(1, min_targets)),
      engine_(engine) {}

void CandidateCounter::reserve_for(std::size_t max_addresses) {
  // Every unique address contributes at most 5 level prefixes, and
  // measured campaigns track ~3.3 prefixes per address — 4x bounds
  // the global table. The per-shard scratch sees one day's additions;
  // shards are keyed on AS bits (roughly uniform), so an even split
  // with 4x skew slack covers the worst single day. Candidate-side
  // vectors are bounded by one entry per tracked prefix.
  counts_.reserve(max_addresses * 4 + 64);
  for (auto& shard : local_) {
    shard.reserve((max_addresses * 5 / engine::kShardCount) * 4 + 64);
  }
  partition_.order.reserve(max_addresses);
  candidates_.reserve(max_addresses + 64);
  merged_.reserve(max_addresses + 64);
  crossed_.reserve(max_addresses + 64);
}

const std::vector<Prefix>& CandidateCounter::add_addresses(
    const Address* addrs, std::size_t count) {
  crossed_.clear();
  if (count == 0) return crossed_;
  // Count: one hash map per top-bits shard, whole buckets on the
  // engine workers. All level prefixes of an address live in its
  // shard (every level is at or below /48 > kShardDepth); only an
  // announced prefix shorter than the shard key can straddle buckets,
  // and the commutative merge below absorbs that.
  for (auto& shard : local_) shard.clear();
  engine::shard_partition_into(
      addrs, count, [](const Address& a) { return engine::shard_of(a); },
      partition_);
  auto count_shards = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      for (std::uint32_t k = partition_.bounds[s];
           k < partition_.bounds[s + 1]; ++k) {
        count_address_levels(addrs[partition_.order[k]], *bgp_, local_[s]);
      }
    }
  };
  if (engine_ != nullptr && engine_->parallel()) {
    // Grain 1 = a task never splits a shard, so each worker owns its
    // `local_[s]` maps exclusively until the return barrier hands them
    // to the serial merge (the CandidateCounter thread discipline).
    engine_->parallel_for(engine::kShardCount, 1, count_shards);
  } else {
    count_shards(0, engine::kShardCount);
  }
  // Merge: serial, in shard order. Counts only ever grow, so a prefix
  // crosses min_targets at most once — the crossing set is a pure
  // function of the address set regardless of hash-map iteration
  // order, and sorting makes the returned order canonical too.
  for (const auto& shard_counts : local_) {
    // order_lint: allow(sum-commutative: counts only grow; crossed_ sorted below)
    for (const auto& [prefix, added] : shard_counts) {
      auto& total = counts_[prefix];
      const bool was_candidate = total >= min_targets_;
      total += added;
      if (!was_candidate && total >= min_targets_) crossed_.push_back(prefix);
    }
  }
  std::sort(crossed_.begin(), crossed_.end());
  // Absorb into the sorted candidate list by merging into a reused
  // scratch and swapping (std::inplace_merge buys a temporary buffer
  // from the heap; the two vectors circulate their capacity instead).
  merged_.clear();
  std::merge(candidates_.begin(), candidates_.end(), crossed_.begin(),
             crossed_.end(), std::back_inserter(merged_));
  candidates_.swap(merged_);
  return crossed_;
}

AliasDetector::AliasDetector(netsim::NetworkSim& sim, const ApdOptions& options,
                             engine::Engine* engine)
    : sim_(&sim), options_(options), engine_(engine) {}

void AliasDetector::reserve_prefixes(std::size_t max_prefixes) {
  state_.reserve(max_prefixes);
  outcomes_.reserve(max_prefixes);
  partition_.order.reserve(max_prefixes);
}

PrefixOutcome AliasDetector::probe_prefix(const Prefix& prefix, int day) {
  PrefixOutcome outcome;
  outcome.prefix = prefix;
  // Fan-out addresses are salted per day, so there is nothing to
  // cache across days: each probe resolves its address directly.
  for (unsigned nybble = 0; nybble < 16; ++nybble) {
    const Address target =
        prefix.fanout_address(nybble, util::hash64(day, nybble, 0xA9D));
    outcome.responded +=
        sim_->probe(target, options_.protocol, day, nybble).responded;
  }
  outcome.aliased = outcome.responded == 16;
  return outcome;
}

void AliasDetector::run_day_on_prefixes(const std::vector<Prefix>& prefixes,
                                        int day, scan::ResultSink* sink,
                                        DayOutcome& out) {
  // Covers the fan-out probes AND the serial window merge; purely
  // observational (lane-local stores + clock reads), so verdicts are
  // identical with obs_ attached or null.
  obs::StageSpan span(obs_, obs::Stage::kApd);
  out.clear();
  const std::size_t n = prefixes.size();
  outcomes_.clear();
  outcomes_.resize(n);
  if (engine_ != nullptr && engine_->parallel()) {
    // Batch per top-bits shard: each worker chunk probes one region of
    // the address space; outcomes are index-addressed, so the merge
    // below reads them back in input order regardless of scheduling.
    engine::shard_partition_into(
        prefixes.data(), n,
        [](const Prefix& p) { return engine::shard_first(p); }, partition_);
    engine_->parallel_for(n, 4, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = partition_.order[k];
        outcomes_[i] = probe_prefix(prefixes[i], day);
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      outcomes_[i] = probe_prefix(prefixes[i], day);
    }
  }
  // Deterministic merge: windows update serially in input order.
  for (std::size_t i = 0; i < n; ++i) {
    const Prefix& prefix = prefixes[i];
    out.probes += 16;
    auto [entry, inserted] = state_.try_emplace(prefix);
    if (inserted) entry->second.window = SlidingVerdict(options_.window_days);
    SlidingVerdict& window = entry->second.window;
    // The effective previous verdict — a prefix without one yet is
    // clean, so a first-day aliased verdict is a became_aliased event
    // even though the Table-4 flip counter (which measures verdict
    // *instability*) does not count it.
    const bool previous = window.has_verdict() && window.verdict();
    if (window.update(outcomes_[i].aliased)) ++entry->second.flips;
    const bool current = window.verdict();
    if (current != previous) {
      (current ? out.became_aliased : out.became_clean).push_back(prefix);
    }
    if (current) out.aliased.push_back(prefix);
    if (sink != nullptr) {
      sink->on_fanout(prefix, outcomes_[i].responded, current);
    }
  }
  if (obs_ != nullptr) {
    obs_->registry().add(obs_->core().apd_probes, out.probes);
  }
}

std::vector<Prefix> AliasDetector::candidate_prefixes(
    const std::vector<Address>& targets) const {
  std::unordered_map<Prefix, std::size_t, ipv6::PrefixHash> counts;
  const auto& bgp = sim_->universe().bgp();
  for (const auto& a : targets) {
    count_address_levels(a, bgp, counts);
  }
  std::vector<Prefix> out;
  // order_lint: allow(sorted-after: membership filter, out is sorted below)
  for (const auto& [prefix, count] : counts) {
    if (count >= options_.min_targets) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<Prefix, unsigned> AliasDetector::verdict_flips() const {
  std::map<Prefix, unsigned> out;
  // order_lint: allow(sorted-after: emplaced into an ordered std::map keyed by prefix)
  for (const auto& [prefix, verdict_state] : state_) {
    if (verdict_state.flips > 0) out.emplace(prefix, verdict_state.flips);
  }
  return out;
}

std::vector<Prefix> AliasDetector::current_aliased() const {
  std::vector<Prefix> out;
  // order_lint: allow(sorted-after: membership filter, out is sorted below)
  for (const auto& [prefix, verdict_state] : state_) {
    if (verdict_state.window.verdict()) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace v6h::apd

#include "hitlist/pipeline.h"

#include <utility>

#include "obs/obs.h"

namespace v6h::hitlist {

using ipv6::Address;

void AliasFilter::is_aliased_many(const Address* in, std::size_t count,
                                  std::vector<char>* aliased,
                                  engine::Engine* engine) const {
  aliased->assign(count, 0);
  if (trie_.empty()) return;
  // Worker discipline: the trie is read-only here (insert and erase
  // are coordinator-only, between scan phases), and each worker
  // writes only its own index range of `aliased`; the parallel_for
  // return barrier publishes the column to the caller.
  auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      (*aliased)[i] = trie_.longest_match(in[i]) != nullptr;
    }
  };
  if (engine != nullptr) {
    engine->parallel_for(count, 512, run);
  } else {
    run(0, count);
  }
}

void AliasFilter::reserve(std::size_t max_prefixes,
                          std::size_t max_trie_nodes) {
  trie_.reserve(max_trie_nodes, max_prefixes);
}

Pipeline::Pipeline(const netsim::Universe& universe, netsim::NetworkSim& sim,
                   PipelineOptions options, engine::Engine* engine)
    : options_(std::move(options)),
      engine_(engine),
      sim_(&sim),
      obs_(options_.obs),
      sources_(universe, engine),
      detector_(sim, options_.apd, engine),
      scan_engine_(sim, engine) {
  // Stage-level instrumentation inside the scan engine and the APD
  // fan-out; registry storage was allocated when the Observability
  // was constructed, so attaching it here allocates nothing.
  scan_engine_.set_observability(obs_);
  detector_.set_observability(obs_);
  // Front-load every steady-state buffer to its campaign bound. The
  // source simulator can never emit more unique addresses than the
  // sum of its per-source final counts (growth fractions cap at 1),
  // so that sum bounds the store, the resolution cache, the frame's
  // row space, and — at ~5 level prefixes per address — the APD
  // table and candidate list. A day's verdict transitions hold at
  // most one entry per candidate. The aliased set is far smaller
  // (only genuinely aliased zones survive the 16/16 fan-out), so the
  // filter gets a detection-sized budget with generous slack; the
  // counting-allocator test (tests/test_day_alloc.cpp) fails loudly
  // if a campaign ever outgrows any of these.
  const std::size_t bound = sources_.max_unique_addresses();
  const std::size_t candidate_bound = detector_.candidate_bound(bound);
  const std::size_t aliased_budget =
      256 + universe.true_aliased_prefixes().size() * 64;
  store_.reserve(bound);
  detector_.reserve_for(bound);
  scan_engine_.reserve(bound);
  frame_.reserve(bound);
  filter_.reserve(aliased_budget, 2048 + aliased_budget * 24);
  new_row_aliased_.reserve(bound);
  flipped_.reserve(candidate_bound);
  affected_rows_.reserve(bound);
  delta_.became_aliased.reserve(candidate_bound);
  delta_.became_clean.reserve(candidate_bound);
}

Pipeline::DayReport Pipeline::run_day(int day) {
  // Observability discipline: spans and counter updates below are
  // lane-local relaxed stores plus clock reads — no locks, no
  // allocation, no effect on any pipeline decision — so the DayReport
  // stream is byte-identical with obs_ attached or null
  // (tests/test_obs.cpp pins both halves of that contract).
  if (obs_ != nullptr) obs_->begin_day(day);
  const std::uint64_t probes_before =
      obs_ != nullptr ? sim_->probes_sent() : 0;

  DayReport report;
  report.day = day;
  delta_.clear();
  delta_.day = day;
  delta_.first_new_row = static_cast<std::uint32_t>(store_.size());

  // 1. Collect: every source contributes its day-`day` snapshot; the
  // scamper source traceroutes toward the hitlist so far. The
  // first-seen dedup stays serial in draw order (TargetStore::insert),
  // so row order is identical for any thread count.
  {
    obs::StageSpan span(obs_, obs::Stage::kCollect);
    for (const auto source : netsim::kAllSources) {
      const auto& result =
          source == netsim::SourceId::kScamper
              ? sources_.collect(source, day, store_.addresses())
              : sources_.collect(source, day);
      for (const auto& a : result.new_addresses) {
        if (store_.insert(a, day)) ++report.new_addresses;
      }
    }
  }
  delta_.row_count = static_cast<std::uint32_t>(store_.size());

  // 2. APD over the multi-level candidates: fold only the day's new
  // rows into the detector's per-prefix counts, where each new
  // candidate takes its zone-trie cursor once. The resulting batch
  // equals a full recount of the hitlist
  // (AliasDetector::candidate_prefixes), so every prefix keeps its
  // full daily probe history — which its windowed verdict depends on.
  {
    obs::StageSpan span(obs_, obs::Stage::kCandidates);
    detector_.add_addresses(store_.addresses().data() + delta_.first_new_row,
                            delta_.new_addresses());
  }
  detector_.run_day(day, &delta_.became_aliased, &delta_.became_clean);

  // 3. Alias filter + per-row verdict flags. Apply the verdict
  // transitions in place, then re-filter exactly the rows whose answer
  // can have changed, each once: the day's new rows (all flags start
  // clean) and the older members of flipped prefixes — a row outside
  // every flipped prefix keeps yesterday's longest match. Removes run
  // first so the tries' freed value slots feed the inserts (the sets
  // are disjoint, so the order cannot change the filter).
  {
    obs::StageSpan span(obs_, obs::Stage::kRefilter);
    for (const auto& prefix : delta_.became_clean) filter_.remove(prefix);
    for (const auto& prefix : delta_.became_aliased) filter_.insert(prefix);
    filter_.is_aliased_many(store_.addresses().data() + delta_.first_new_row,
                            delta_.new_addresses(), &new_row_aliased_,
                            engine_);
    for (std::size_t i = 0; i < new_row_aliased_.size(); ++i) {
      store_.set_aliased(delta_.first_new_row + i, new_row_aliased_[i] != 0);
    }
    // One lookup over both lists returns each member once, ascending,
    // so the walk stops at the first new row (already set above).
    flipped_.assign(delta_.became_aliased.begin(), delta_.became_aliased.end());
    flipped_.insert(flipped_.end(), delta_.became_clean.begin(),
                    delta_.became_clean.end());
    affected_rows_.clear();
    store_.rows_within_many(flipped_, &affected_rows_);
    for (const auto row : affected_rows_) {
      if (row >= delta_.first_new_row) break;
      store_.set_aliased(row, filter_.is_aliased(store_.address(row)));
    }
  }
  report.aliased_prefixes = filter_.size();

  // 4. Scan everything not inside detected aliased space into the
  // reusable frame. The resolved engine extends its per-row cache by
  // the day's new rows and answers every probe from it.
  scan_engine_.sync(store_, day);
  scan_engine_.scan_store(store_, day, options_.schedule, &frame_);
  report.scanned_targets = frame_.rows().size();
  report.frame = &frame_;

  if (obs_ != nullptr) {
    // Deterministic day-loop series (coordinator-written: pure
    // functions of seed + day sequence), then the day close: gauges,
    // registry shard merge, DayTelemetry to the sink.
    auto& registry = obs_->registry();
    const obs::CoreMetrics& core = obs_->core();
    registry.add(core.new_addresses, report.new_addresses);
    registry.add(core.scanned_targets, report.scanned_targets);
    registry.add(core.probes, sim_->probes_sent() - probes_before);
    registry.set(core.aliased_prefixes, report.aliased_prefixes);
    registry.set(core.hitlist_rows, store_.size());
    obs_->end_day(day);
  }
  return report;
}

}  // namespace v6h::hitlist

#include "hitlist/pipeline.h"

#include <utility>

#include "obs/obs.h"

namespace v6h::hitlist {

namespace {

// New rows' aliased counts per engine chunk. A warm day's few dozen
// new rows stay inline (parallel_for runs a range up to one grain on
// the caller); a first day's thousands spread over the workers.
constexpr std::size_t kCoverGrain = 512;

}  // namespace

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
  // row space, the member rows of a flipped prefix, and — at ~5
  // level prefixes per address — the APD table and candidate list. A
  // day's verdict transitions hold at most one entry per candidate.
  // The counting-allocator test (tests/test_day_alloc.cpp) fails
  // loudly if a campaign ever outgrows any of these.
  const std::size_t bound = sources_.max_unique_addresses();
  const std::size_t candidate_bound = detector_.candidate_bound(bound);
  store_.reserve(bound);
  detector_.reserve_for(bound);
  scan_engine_.reserve(bound);
  frame_.reserve(bound);
  members_.reserve(bound);
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
        if (store_.insert(a)) ++report.new_addresses;
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

  // 3. Per-row aliased counts, each row counting the aliased prefixes
  // that contain it. A new row (count 0) takes its count from the
  // detector; then every flipped prefix moves each of its older member
  // rows by one, +1 when it became aliased and -1 when it became clean,
  // once per (prefix, member) pair, so a row inside two nested prefixes
  // that flip the same way moves by 2. A row outside every flipped
  // prefix keeps yesterday's count, and no row walks a trie.
  {
    obs::StageSpan span(obs_, obs::Stage::kRefilter);
    const std::uint32_t first_new = delta_.first_new_row;
    // Worker discipline: the detector is read-only here, and each chunk
    // writes only its own new rows' bytes; the parallel_for return
    // barrier publishes them.
    auto cover = [&](std::size_t begin, std::size_t end) {
      for (std::size_t row = first_new + begin; row < first_new + end; ++row) {
        store_.add_cover(row, static_cast<int>(detector_.aliased_cover(
                                  store_.address(row))));
      }
    };
    engine::parallel_for(engine_, delta_.new_addresses(), kCoverGrain, cover);
    auto step = [&](const std::vector<ipv6::Prefix>& flipped, int delta) {
      for (const auto& prefix : flipped) {
        members_.clear();
        store_.rows_within(prefix, &members_);
        for (const auto row : members_) {
          if (row < first_new) store_.add_cover(row, delta);
        }
      }
    };
    // On a first day every row is new, so the steps would only
    // gather member rows to skip them.
    if (first_new > 0) {
      step(delta_.became_aliased, +1);
      step(delta_.became_clean, -1);
    }
  }
  report.aliased_prefixes = detector_.aliased_count();

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

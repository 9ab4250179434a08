#pragma once

// Fixed-capacity metrics registry for the observability layer: dense
// counters, gauges, and pre-bucketed histograms whose storage is laid
// out per writer lane (engine worker) at construction time.
//
// Allocation discipline: every byte is allocated in the constructor
// and by the registration calls (both construction-time, cold); the
// hot-path update surface — add / set / observe — and the day-end
// merge_day touch only the preallocated cells, so a warm day with
// metrics enabled performs zero heap allocations (tests/test_obs.cpp
// pins this with the counting allocator, and the symlint noalloc policy
// proves it statically from the instrumented day-loop roots).
//
// Concurrency discipline: each lane has exactly ONE writer — lane 0
// is the pipeline coordinator, lanes 1..N-1 the engine pool workers
// (ThreadPool::worker_loop claims its lane at spawn via set_lane).
// Hot-path updates are therefore plain relaxed load/store pairs on
// the lane's own cells: no locks, no contended read-modify-writes.
// merge_day runs on the coordinator AFTER the pool barrier of the
// day's last parallel phase, which is what orders the workers' lane
// writes before the serial merge reads them.
//
// Determinism: a metric registered `deterministic` promises that its
// merged value is a pure function of (universe seed, day sequence) —
// independent of thread count and scheduling. Coordinator-written
// pipeline metrics qualify; engine scheduling metrics (task/steal/
// chunk counts) and every timing metric do not and must be registered
// with deterministic = false. tests/test_obs.cpp sweeps seeds x
// thread counts over exactly the deterministic subset.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"

namespace v6h::obs {

/// The observability lane of the current thread: 0 for the pipeline
/// coordinator (and any thread that never claimed a lane), 1..N-1 for
/// engine pool workers. One writer per lane is the invariant that
/// makes relaxed non-atomic-RMW updates safe.
inline thread_local unsigned t_lane = 0;
inline unsigned lane() { return t_lane; }
inline void set_lane(unsigned worker_lane) { t_lane = worker_lane; }

/// Dense handle into a Registry (an index into its descriptor table).
using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

class Registry {
 public:
  struct Desc {
    const char* name = nullptr;  // borrowed; registrants pass literals
    MetricKind kind = MetricKind::kCounter;
    bool deterministic = false;
    std::uint32_t first_slot = 0;
    std::uint32_t slots = 1;  // histograms: bucket count (bounds + 1)
    // Histogram upper bounds, borrowed (registrants pass constexpr
    // arrays): bucket b counts values < bounds[b]; the last bucket is
    // the overflow bucket (>= bounds[slots - 2]).
    const std::uint64_t* bounds = nullptr;
  };

  /// `lanes` must cover every thread that will update metrics (engine
  /// worker count including the coordinator); a thread whose lane is
  /// out of range falls back to lane 0, which loses the one-writer
  /// guarantee — size the registry from the engine, not a guess.
  Registry(std::size_t max_metrics, std::size_t max_slots, unsigned lanes);

  // ---- registration (cold; construction time only) ----------------
  // Idempotent by name: re-registering an existing name returns the
  // existing id (so several components can share one registry without
  // coordinating). Exceeding a capacity or re-registering a name with
  // a different shape aborts: registration is programmer-controlled
  // and a silent fallback would corrupt the telemetry schema.
  MetricId counter(const char* name, bool deterministic);
  MetricId gauge(const char* name, bool deterministic);
  MetricId histogram(const char* name, const std::uint64_t* bounds,
                     std::size_t bound_count);

  // ---- hot path (lane-local relaxed stores; no locks, no alloc) ---
  void add(MetricId id, std::uint64_t delta) {
    bump(descs_[id].first_slot, delta);
  }

  /// Absolute value; coordinator-only by convention (gauges describe
  /// serial day-loop state, so they live in lane 0).
  void set(MetricId id, std::uint64_t value) {
    cell(descs_[id].first_slot).store(value, std::memory_order_relaxed);
  }

  void observe(MetricId id, std::uint64_t value) {
    const Desc& d = descs_[id];
    std::uint32_t bucket = 0;
    while (bucket + 1 < d.slots && value >= d.bounds[bucket]) ++bucket;
    bump(d.first_slot + bucket, 1);
  }

  // ---- day boundary (coordinator, after the last pool barrier) ----
  /// Fold every lane into the merged cumulative values and compute
  /// the day deltas (counters/histograms: delta since the previous
  /// merge; gauges: the current value). Allocation-free.
  void merge_day();

  // ---- read side (valid after merge_day) --------------------------
  std::uint64_t merged(MetricId id) const { return merged_[descs_[id].first_slot]; }
  std::uint64_t day(MetricId id) const { return day_[descs_[id].first_slot]; }
  std::uint64_t merged_bucket(MetricId id, std::uint32_t bucket) const {
    return merged_[descs_[id].first_slot + bucket];
  }

  std::size_t metric_count() const { return descs_.size(); }
  const Desc& describe(MetricId id) const { return descs_[id]; }
  unsigned lanes() const { return lanes_; }

 private:
  std::atomic<std::uint64_t>& cell(std::uint32_t slot) {
    const unsigned l = t_lane;
    return cells_[static_cast<std::size_t>(l < lanes_ ? l : 0) * stride_ +
                  slot];
  }

  void bump(std::uint32_t slot, std::uint64_t delta) {
    auto& c = cell(slot);
    // Single writer per lane: a plain relaxed load/store pair, never
    // a contended fetch_add.
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  MetricId register_metric(const char* name, MetricKind kind,
                           bool deterministic, std::uint32_t slots,
                           const std::uint64_t* bounds);

  std::size_t max_metrics_;
  std::size_t stride_;  // slots per lane
  unsigned lanes_;
  std::uint32_t used_slots_ = 0;
  // Registration is construction-time, coordinator-only; the hot path
  // reads descs_ without synchronization because it never changes
  // after the last register_metric.
  std::vector<Desc> descs_ V6H_LANE_OWNED(coordinator at construction);
  // lanes_ x stride_; cell (l, s) is written only by the thread whose
  // t_lane == l, with relaxed load/store pairs. merge_day's cross-lane
  // reads are ordered by the publication edge named here: the pool
  // return barrier of the day's last parallel phase.
  std::vector<std::atomic<std::uint64_t>> cells_ V6H_PUBLISHED_BY(pool barrier);
  // Merge outputs (cumulative / previous merge / delta of the day):
  // written and read by the coordinator only, between parallel phases.
  std::vector<std::uint64_t> merged_ V6H_LANE_OWNED(coordinator);
  std::vector<std::uint64_t> prev_ V6H_LANE_OWNED(coordinator);
  std::vector<std::uint64_t> day_ V6H_LANE_OWNED(coordinator);
};

}  // namespace v6h::obs

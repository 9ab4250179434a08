#pragma once

// Fixed-capacity metrics registry for the observability layer: dense
// counters and gauges whose storage is laid out per writer lane
// (engine worker) at construction time.
//
// Allocation discipline: every byte is allocated in the constructor
// and by the registration calls (both construction-time, cold); the
// hot-path update surface — add / set — and the day-end
// merge_day touch only the preallocated cells, so a warm day with
// metrics enabled performs zero heap allocations (tests/test_obs.cpp
// pins this with the counting allocator, and the symlint noalloc policy
// proves it statically from the instrumented day-loop roots).
//
// Concurrency discipline: each lane has exactly ONE writer — lane 0
// is the pipeline coordinator, lanes 1..N-1 the engine pool workers
// (Engine::worker_loop claims its lane at spawn via set_lane).
// Hot-path updates are therefore plain relaxed load/store pairs on
// the lane's own cells: no locks, no contended read-modify-writes.
// merge_day runs on the coordinator AFTER the pool barrier of the
// day's last parallel phase, which is what orders the workers' lane
// writes before the serial merge reads them.
//
// Determinism: a metric registered `deterministic` promises that its
// merged value is a pure function of (universe seed, day sequence) —
// independent of thread count and scheduling. Coordinator-written
// pipeline metrics qualify; engine scheduling metrics (task/sweep/
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

enum class MetricKind : std::uint8_t { kCounter, kGauge };

class Registry {
 public:
  /// Registration capacity: every metric holds one cell per lane, and
  /// registering more than this many aborts.
  static constexpr std::size_t kMaxMetrics = 96;

  struct Desc {
    const char* name = nullptr;  // borrowed; registrants pass literals
    MetricKind kind = MetricKind::kCounter;
    bool deterministic = false;
  };

  /// `lanes` must cover every thread that will update metrics (engine
  /// worker count including the coordinator); a thread whose lane is
  /// out of range falls back to lane 0, which loses the one-writer
  /// guarantee — size the registry from the engine, not a guess.
  explicit Registry(unsigned lanes);

  // ---- registration (cold; construction time only) ----------------
  // Idempotent by name: re-registering an existing name returns the
  // existing id (so several components can share one registry without
  // coordinating). Exceeding kMaxMetrics or re-registering a name with
  // a different kind aborts: registration is programmer-controlled
  // and a silent fallback would corrupt the telemetry schema.
  MetricId counter(const char* name, bool deterministic);
  MetricId gauge(const char* name, bool deterministic);

  // ---- hot path (lane-local relaxed stores; no locks, no alloc) ---
  void add(MetricId id, std::uint64_t delta) {
    auto& c = cell(id);
    // Single writer per lane: a plain relaxed load/store pair, never
    // a contended fetch_add.
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  /// Absolute value; coordinator-only by convention (gauges describe
  /// serial day-loop state, so they live in lane 0).
  void set(MetricId id, std::uint64_t value) {
    cell(id).store(value, std::memory_order_relaxed);
  }

  // ---- day boundary (coordinator, after the last pool barrier) ----
  /// Fold every lane into the merged cumulative values and compute
  /// the day deltas (counters: delta since the previous merge;
  /// gauges: the current value). Allocation-free.
  void merge_day();

  // ---- read side (valid after merge_day) --------------------------
  std::uint64_t merged(MetricId id) const { return merged_[id]; }
  std::uint64_t day(MetricId id) const { return day_[id]; }

  std::size_t metric_count() const { return descs_.size(); }
  const Desc& describe(MetricId id) const { return descs_[id]; }
  unsigned lanes() const { return lanes_; }

 private:
  std::atomic<std::uint64_t>& cell(MetricId id) {
    const unsigned l = t_lane;
    return cells_[static_cast<std::size_t>(l < lanes_ ? l : 0) * kMaxMetrics +
                  id];
  }

  MetricId register_metric(const char* name, MetricKind kind,
                           bool deterministic);

  unsigned lanes_;
  // Registration is construction-time, coordinator-only; after the
  // last register_metric only merge_day and the read side use it.
  std::vector<Desc> descs_ V6H_LANE_OWNED(coordinator at construction);
  // lanes_ x kMaxMetrics; cell (l, id) is written only by the thread
  // whose t_lane == l, with relaxed load/store pairs. merge_day's
  // cross-lane reads are ordered by the publication edge named here:
  // the pool return barrier of the day's last parallel phase.
  std::vector<std::atomic<std::uint64_t>> cells_ V6H_PUBLISHED_BY(pool barrier);
  // Merge outputs (cumulative / previous merge / delta of the day):
  // written and read by the coordinator only, between parallel phases.
  std::vector<std::uint64_t> merged_ V6H_LANE_OWNED(coordinator);
  std::vector<std::uint64_t> prev_ V6H_LANE_OWNED(coordinator);
  std::vector<std::uint64_t> day_ V6H_LANE_OWNED(coordinator);
};

}  // namespace v6h::obs

#pragma once

// Top-level observability facade: one `Observability` object owns the
// sharded metrics Registry and the preallocated TraceRing, preregisters
// the core day-loop/engine metric schema, and turns each pipeline day
// into a `DayTelemetry` record streamed through a `TelemetrySink`.
//
// The subsystem is compiled in but DEFAULT OFF: every instrumentation
// site takes an `Observability*` and branches on null, so a pipeline
// built without one pays a predicted-not-taken branch per stage and
// nothing else. With it on, hot-path work is lane-local relaxed stores
// (metrics.h) and slot claims (trace.h) — no locks, no allocation —
// and the DayReport stream stays byte-identical (tests/test_obs.cpp).
//
// Span naming convention: stage spans are the lower_snake names in
// kStageNames ("collect", "candidates", "apd_fanout", "refilter",
// "scan_sync", "scan_probe", "frame_finish"), engine sweeps are
// "pool_run", and the whole-day envelope is "day". Counter samples
// exported at each day boundary reuse the metric names below.

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_annotations.h"

namespace v6h::obs {

enum class Stage : unsigned {
  kCollect = 0,
  kCandidates,
  kApd,
  kRefilter,
  kScanSync,
  kScanProbe,
  kFrameFinish,
  kPoolRun,
  kDay,
};

inline constexpr unsigned kStageCount = 9;

inline constexpr const char* kStageNames[kStageCount] = {
    "collect",    "candidates",   "apd_fanout", "refilter", "scan_sync",
    "scan_probe", "frame_finish", "pool_run",   "day",
};

/// Ids of the preregistered core schema, resolved once at
/// Observability construction so instrumentation sites never pay a
/// name lookup.
struct CoreMetrics {
  MetricId stage_ns[kStageCount];  // nondeterministic (timing)
  // Deterministic day-loop counters/gauges (coordinator-written, pure
  // functions of seed + day sequence — thread-count invariant):
  MetricId new_addresses;     // counter: rows admitted to the hitlist
  MetricId scanned_targets;   // counter: targets scanned that day
  MetricId probes;            // counter: simulator probes (APD + scan)
  MetricId apd_probes;        // counter: APD fan-out probes
  MetricId aliased_prefixes;  // gauge: live aliased-prefix count
  MetricId hitlist_rows;      // gauge: TargetStore rows
  MetricId days;              // counter: run_day invocations
  // Nondeterministic engine scheduling metrics (per-worker lanes):
  MetricId pool_tasks;     // counter: chunks run, by the thread that ran them
  MetricId parallel_fors;  // counter: parallel sweeps dispatched
  MetricId chunks;         // counter: chunks across all sweeps
  // Nondeterministic day bookkeeping gauge:
  MetricId trace_dropped;  // gauge: ring drops so far
};

/// One pipeline day, assembled from the merged registry at end_day.
/// `stage_ms` is indexed by Stage and sums every span of that stage
/// within the day (a stage that ran multiple sweeps accumulates).
struct DayTelemetry {
  int day = -1;
  double day_ms = 0.0;
  double stage_ms[kStageCount] = {};
  std::uint64_t new_addresses = 0;
  std::uint64_t scanned_targets = 0;
  std::uint64_t probes = 0;
  std::uint64_t apd_probes = 0;
  std::uint64_t aliased_prefixes = 0;
  std::uint64_t hitlist_rows = 0;
  std::uint64_t pool_tasks = 0;
  // Always 0: every thread claims chunks from one shared cursor, so
  // nothing is stolen. Kept because telemetry consumers read it.
  std::uint64_t pool_steals = 0;
  std::uint64_t chunks = 0;
  std::uint64_t trace_dropped = 0;
};

/// Streaming consumer of per-day telemetry. on_day is called once per
/// run_day, on the coordinator, after the registry merge; the record
/// is only valid for the duration of the call. This is the day loop's
/// only virtual dispatch, and it runs only with an Observability
/// attached. Implementations on the bench/test side must not allocate
/// if they sit inside an allocation-audited window (reserve your
/// series up front).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_day(const DayTelemetry& telemetry) = 0;
};

struct ObsOptions {
  bool tracing = false;            // record spans into the ring
  std::size_t trace_capacity = 1u << 15;  // events; ring is pre-sized
};

class Observability {
 public:
  /// `lanes` = engine thread count (coordinator + workers); sizes the
  /// registry shards. All allocation happens here.
  Observability(const ObsOptions& options, unsigned lanes);

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  const CoreMetrics& core() const { return core_; }
  bool tracing() const { return options_.tracing; }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  void set_sink(TelemetrySink* sink) { sink_ = sink; }

  // ---- day boundary (coordinator; allocation-free) ----------------
  void begin_day(int day);
  void end_day(int day);
  const DayTelemetry& last_day() const { return telemetry_; }

  /// Record one completed stage span: accumulate into the stage_ns
  /// counter and, when tracing, append to the ring. Out-of-line so
  /// the inlined StageSpan dtor stays a null-check + call.
  void record_span(Stage stage, std::uint64_t start_ns, std::uint64_t end_ns);

  // ---- cold export (allocates; never on the day path) -------------
  std::string trace_json() const;

  static std::uint64_t now_ns();

 private:
  ObsOptions options_;
  Registry registry_;
  TraceRing ring_;
  CoreMetrics core_{};
  // Configuration hook: set between runs on the coordinator, read by
  // end_day on the same thread. Workers never touch it.
  TelemetrySink* sink_ V6H_LANE_OWNED(coordinator) = nullptr;
  // Day-boundary bookkeeping: begin_day/end_day/record-assembly run on
  // the coordinator only, outside any parallel phase.
  std::uint64_t day_start_ns_ V6H_LANE_OWNED(coordinator) = 0;
  DayTelemetry telemetry_ V6H_LANE_OWNED(coordinator);
};

/// RAII stage span: times a scope and reports it to `obs` (no-op when
/// obs is null). Both ends are a clock read plus an out-of-line call;
/// nothing here can allocate.
class StageSpan {
 public:
  StageSpan(Observability* obs, Stage stage)
      : obs_(obs),
        stage_(stage),
        start_ns_(obs != nullptr ? Observability::now_ns() : 0) {}
  ~StageSpan() {
    if (obs_ != nullptr) {
      obs_->record_span(stage_, start_ns_, Observability::now_ns());
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Observability* obs_;
  Stage stage_;
  std::uint64_t start_ns_;
};

}  // namespace v6h::obs

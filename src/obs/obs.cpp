#include "obs/obs.h"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace v6h::obs {

std::uint64_t Observability::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Observability::Observability(const ObsOptions& options, unsigned lanes)
    : options_(options),
      registry_(lanes),
      ring_(options.tracing ? options.trace_capacity : 0) {
  for (unsigned s = 0; s < kStageCount; ++s) {
    core_.stage_ns[s] =
        registry_.counter(kStageNames[s], /*deterministic=*/false);
  }
  core_.new_addresses = registry_.counter("pipeline.new_addresses", true);
  core_.scanned_targets = registry_.counter("pipeline.scanned_targets", true);
  core_.probes = registry_.counter("pipeline.probes", true);
  core_.apd_probes = registry_.counter("pipeline.apd_probes", true);
  core_.aliased_prefixes = registry_.gauge("pipeline.aliased_prefixes", true);
  core_.hitlist_rows = registry_.gauge("pipeline.hitlist_rows", true);
  core_.days = registry_.counter("pipeline.days", true);
  core_.pool_tasks = registry_.counter("engine.pool_tasks", false);
  core_.parallel_fors = registry_.counter("engine.parallel_fors", false);
  core_.chunks = registry_.counter("engine.chunks", false);
  core_.trace_dropped = registry_.gauge("obs.trace_dropped", false);
}

void Observability::record_span(Stage stage, std::uint64_t start_ns,
                                std::uint64_t end_ns) {
  registry_.add(core_.stage_ns[static_cast<unsigned>(stage)],
                end_ns - start_ns);
  if (options_.tracing) {
    ring_.span(kStageNames[static_cast<unsigned>(stage)], start_ns, end_ns);
  }
}

void Observability::begin_day(int day) {
  (void)day;
  day_start_ns_ = now_ns();
}

void Observability::end_day(int day) {
  const std::uint64_t end_ns = now_ns();
  // The day envelope span is recorded before the merge so it lands in
  // this day's delta alongside the stage spans it encloses.
  record_span(Stage::kDay, day_start_ns_, end_ns);
  registry_.set(core_.trace_dropped, ring_.dropped());
  registry_.add(core_.days, 1);
  registry_.merge_day();

  telemetry_.day = day;
  telemetry_.day_ms = static_cast<double>(end_ns - day_start_ns_) * 1e-6;
  for (unsigned s = 0; s < kStageCount; ++s) {
    telemetry_.stage_ms[s] =
        static_cast<double>(registry_.day(core_.stage_ns[s])) * 1e-6;
  }
  telemetry_.new_addresses = registry_.day(core_.new_addresses);
  telemetry_.scanned_targets = registry_.day(core_.scanned_targets);
  telemetry_.probes = registry_.day(core_.probes);
  telemetry_.apd_probes = registry_.day(core_.apd_probes);
  telemetry_.aliased_prefixes = registry_.day(core_.aliased_prefixes);
  telemetry_.hitlist_rows = registry_.day(core_.hitlist_rows);
  telemetry_.pool_tasks = registry_.day(core_.pool_tasks);
  telemetry_.chunks = registry_.day(core_.chunks);
  telemetry_.trace_dropped = registry_.day(core_.trace_dropped);

  if (options_.tracing) {
    // Counter samples at the day boundary make the per-day series
    // visible as counter tracks in the trace viewer.
    ring_.counter("pipeline.new_addresses", end_ns, telemetry_.new_addresses);
    ring_.counter("pipeline.probes", end_ns, telemetry_.probes);
    ring_.counter("pipeline.hitlist_rows", end_ns, telemetry_.hitlist_rows);
    ring_.counter("engine.pool_tasks", end_ns, telemetry_.pool_tasks);
  }
  if (sink_ != nullptr) sink_->on_day(telemetry_);
}

namespace {

void append_f(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string Observability::trace_json() const {
  // Chrome trace-event JSON (Perfetto-loadable). Timestamps are
  // normalized to the first recorded event and exported in
  // microseconds with nanosecond precision.
  std::string out;
  out.reserve(ring_.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::uint64_t base_ns = 0;
  bool have_base = false;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::uint64_t ts = ring_.event(i).ts_ns;
    if (!have_base || ts < base_ns) {
      base_ns = ts;
      have_base = true;
    }
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& e = ring_.event(i);
    if (i != 0) out += ',';
    const double ts_us = static_cast<double>(e.ts_ns - base_ns) / 1000.0;
    if (e.ph == 'X') {
      const double dur_us = static_cast<double>(e.dur_or_value) / 1000.0;
      append_f(&out,
               "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
               "\"ts\":%.3f,\"dur\":%.3f}",
               e.name, e.tid, ts_us, dur_us);
    } else {
      append_f(&out,
               "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%u,"
               "\"ts\":%.3f,\"args\":{\"value\":%" PRIu64 "}}",
               e.name, e.tid, ts_us, e.dur_or_value);
    }
  }
  append_f(&out, "],\"otherData\":{\"dropped_events\":%" PRIu64 "}}",
           ring_.dropped());
  return out;
}

}  // namespace v6h::obs

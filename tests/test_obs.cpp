// The observability contract (ISSUE 9): the layer may watch the day
// loop, never steer it, and never touch the heap on a warm day.
//
//  1. Determinism: for seeds {1,2,3} x threads {1,4,8}, the DayReport
//     fingerprint (the test_scan_equivalence idiom) is byte-identical
//     with full observability (metrics + tracing) and with it off, and
//     every metric registered `deterministic` merges to the same value
//     for every thread count.
//  2. Zero allocation: with metrics AND tracing enabled, warm run_day
//     calls over test_day_alloc's bench-scale window (the default
//     universe at scale 0.3, days 241-270) perform exactly zero heap
//     allocations (global counting allocator, all threads), and the
//     trace ring never drops.
//  3. Unit semantics: registry merge/delta rules, lane isolation,
//     idempotent registration, and TraceRing drop-don't-wrap.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "obs/obs.h"
#include "test_main.h"
// Global counting operator new — include in exactly ONE TU per binary.
#include "util/counting_allocator.h"

using namespace v6h;

namespace {

constexpr int kDays = 10;
constexpr int kFirstDay = 150;  // mid-campaign: real growth + flicker

struct RunResult {
  std::string fingerprint;  // byte-exact DayReport sequence
  std::uint64_t probes = 0;
  // (name, merged value) of every deterministic metric, id order.
  std::vector<std::pair<std::string, std::uint64_t>> deterministic;
  std::uint64_t days_metric = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t sink_days = 0;
  std::uint64_t sink_probes = 0;
};

// Streams per-day telemetry into plain counters (no allocation — the
// sink contract) so the registry-reported day stream can be checked
// against ground truth.
struct CountingSink final : obs::TelemetrySink {
  std::uint64_t days = 0;
  std::uint64_t probes = 0;
  std::uint64_t new_addresses = 0;
  std::uint64_t last_hitlist_rows = 0;
  void on_day(const obs::DayTelemetry& t) override {
    ++days;
    probes += t.probes;
    new_addresses += t.new_addresses;
    last_hitlist_rows = t.hitlist_rows;
  }
};

RunResult run_pipeline(std::uint64_t seed, unsigned threads, bool with_obs) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  netsim::UniverseParams params;
  params.seed = seed;
  params.scale = 0.05;
  params.tail_as_count = 300;
  const netsim::Universe universe(params, &eng);
  netsim::NetworkSim sim(universe);
  hitlist::PipelineOptions options;
  options.apd.window_days = 1;  // short window: alias flips happen in-run

  std::unique_ptr<obs::Observability> observability;
  CountingSink sink;
  if (with_obs) {
    obs::ObsOptions obs_options;
    obs_options.tracing = true;  // full fat: metrics AND the ring
    observability = std::make_unique<obs::Observability>(obs_options,
                                                         eng.threads());
    observability->set_sink(&sink);
    eng.set_observability(observability.get());
    options.obs = observability.get();
  }
  hitlist::Pipeline pipeline(universe, sim, options, &eng);

  RunResult result;
  std::string& fp = result.fingerprint;
  auto field = [&fp](const char* label, std::uint64_t value) {
    fp += label;
    fp += std::to_string(value);
  };
  for (int day = kFirstDay; day < kFirstDay + kDays; ++day) {
    const auto report = pipeline.run_day(day);
    field("\nday ", static_cast<std::uint64_t>(day));
    field(" new=", report.new_addresses);
    field(" aliased=", report.aliased_prefixes);
    field(" scanned=", report.scanned_targets);
    const auto& frame = report.scan();
    for (const auto protocol : net::kAllProtocols) {
      field(" ", frame.responsive_count(protocol));
    }
    for (const auto row : frame.rows()) {
      fp += "\n  ";
      fp += frame.address_of_row(row).to_string();
      field("/", frame.mask_of_row(row));
    }
  }
  result.probes = sim.probes_sent();
  if (with_obs) {
    eng.set_observability(nullptr);
    const obs::Registry& registry = observability->registry();
    for (obs::MetricId id = 0; id < registry.metric_count(); ++id) {
      const auto& desc = registry.describe(id);
      if (desc.deterministic) {
        result.deterministic.emplace_back(desc.name, registry.merged(id));
      }
    }
    result.days_metric = registry.merged(observability->core().days);
    result.trace_events = observability->ring().size();
    result.trace_dropped = observability->ring().dropped();
    result.sink_days = sink.days;
    result.sink_probes = sink.probes;
  }
  return result;
}

void determinism_sweep(const std::vector<unsigned>& thread_counts) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    // Ground truth: observability fully off, one thread.
    const RunResult base = run_pipeline(seed, 1, /*with_obs=*/false);
    CHECK(!base.fingerprint.empty());
    CHECK(base.probes > 0);
    // The deterministic-metric reference comes from the single-thread
    // observed run; every other thread count must merge identically.
    const RunResult obs_base = run_pipeline(seed, 1, /*with_obs=*/true);
    CHECK(obs_base.fingerprint == base.fingerprint);
    CHECK_EQ(obs_base.probes, base.probes);
    CHECK(!obs_base.deterministic.empty());
    CHECK_EQ(obs_base.days_metric, static_cast<std::uint64_t>(kDays));
    CHECK_EQ(obs_base.sink_days, static_cast<std::uint64_t>(kDays));
    // Every simulator probe happens inside some run_day, so the
    // registry's probe counter must cover them all exactly.
    CHECK_EQ(obs_base.sink_probes, base.probes);
    CHECK(obs_base.trace_events > 0);
    CHECK_EQ(obs_base.trace_dropped, 0u);
    for (const unsigned threads : thread_counts) {
      if (threads == 1) continue;  // that is `obs_base`
      const RunResult other = run_pipeline(seed, threads, /*with_obs=*/true);
      CHECK(other.fingerprint == base.fingerprint);
      CHECK_EQ(other.probes, base.probes);
      CHECK_EQ(other.deterministic.size(), obs_base.deterministic.size());
      for (std::size_t i = 0; i < other.deterministic.size() &&
                              i < obs_base.deterministic.size();
           ++i) {
        CHECK(other.deterministic[i].first == obs_base.deterministic[i].first);
        const bool same =
            other.deterministic[i].second == obs_base.deterministic[i].second;
        CHECK(same);
        if (!same) {
          std::fprintf(stderr,
                       "  seed %llu threads %u: %s merged to %llu, "
                       "single-thread merged to %llu\n",
                       static_cast<unsigned long long>(seed), threads,
                       other.deterministic[i].first.c_str(),
                       static_cast<unsigned long long>(
                           other.deterministic[i].second),
                       static_cast<unsigned long long>(
                           obs_base.deterministic[i].second));
        }
      }
    }
    std::printf("seed %llu: %zu-byte day sequence, %zu deterministic "
                "metrics, %llu trace events\n",
                static_cast<unsigned long long>(seed), base.fingerprint.size(),
                obs_base.deterministic.size(),
                static_cast<unsigned long long>(obs_base.trace_events));
  }
}

// test_day_alloc's bench-scale window rerun with the FULL
// observability layer on (metrics, tracing, telemetry sink): every day
// after the first must still allocate exactly zero times.
void zero_alloc_with_obs(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  netsim::UniverseParams params;
  params.scale = 0.3;
  const netsim::Universe universe(params, &eng);
  netsim::NetworkSim sim(universe);

  obs::ObsOptions obs_options;
  obs_options.tracing = true;
  obs::Observability observability(obs_options, eng.threads());
  CountingSink sink;
  observability.set_sink(&sink);
  eng.set_observability(&observability);
  hitlist::PipelineOptions options;
  options.obs = &observability;
  hitlist::Pipeline pipeline(universe, sim, options, &eng);

  const int first_day = 241;
  const int warmup_days = 1;
  const int total_days = 30;
  std::size_t flips_in_window = 0;
  std::size_t responsive_total = 0;
  std::vector<std::uint64_t> allocs_per_day;
  allocs_per_day.reserve(static_cast<std::size_t>(total_days));
  for (int d = 0; d < total_days; ++d) {
    const std::uint64_t before = util::allocation_count();
    const auto report = pipeline.run_day(first_day + d);
    responsive_total += report.scan().responsive_any_count();
    allocs_per_day.push_back(util::allocation_count() - before);
    if (d >= warmup_days) {
      flips_in_window += !pipeline.last_delta().became_aliased.empty() ||
                         !pipeline.last_delta().became_clean.empty();
    }
  }
  eng.set_observability(nullptr);
  CHECK(responsive_total > 0);  // the days did real scan work
  CHECK(flips_in_window > 0);   // verdict-flip path exercised
  for (int d = warmup_days; d < total_days; ++d) {
    const auto idx = static_cast<std::size_t>(d);
    CHECK_EQ(allocs_per_day[idx], 0u);
    if (allocs_per_day[idx] != 0) {
      std::fprintf(stderr, "  day %d (threads %u): %llu allocations\n",
                   first_day + d, threads,
                   static_cast<unsigned long long>(allocs_per_day[idx]));
    }
  }
  // The ring actually recorded the window and never dropped (capacity
  // must absorb a whole campaign window at this scale).
  CHECK(observability.ring().size() > 0);
  CHECK_EQ(observability.ring().dropped(), 0u);
  CHECK_EQ(sink.days, static_cast<std::uint64_t>(total_days));
  // The cold export stays out of the day path but must produce the
  // documented envelope.
  const std::string trace = observability.trace_json();
  CHECK(trace.find("\"traceEvents\"") != std::string::npos);
  CHECK(trace.find("\"collect\"") != std::string::npos);
  if (threads > 1) {
    // Serial engines never dispatch pool sweeps, so pool_run spans
    // only exist on parallel runs.
    CHECK(trace.find("\"pool_run\"") != std::string::npos);
  }
}

void registry_semantics() {
  obs::Registry registry(3);
  const auto c = registry.counter("unit.counter", true);
  const auto g = registry.gauge("unit.gauge", true);
  // Idempotent by name: same id, same shape.
  CHECK_EQ(registry.counter("unit.counter", true), c);
  CHECK_EQ(registry.describe(c).kind == obs::MetricKind::kCounter, true);
  CHECK(registry.describe(c).deterministic);

  // Lane isolation: writes from two lanes merge additively. set_lane
  // is thread-local, so faking lanes from one thread is safe as long
  // as it is restored (other tests in this binary assume lane 0).
  registry.add(c, 5);
  registry.set(g, 7);
  obs::set_lane(2);
  registry.add(c, 11);
  obs::set_lane(0);
  registry.merge_day();
  CHECK_EQ(registry.merged(c), 16u);
  CHECK_EQ(registry.day(c), 16u);
  CHECK_EQ(registry.merged(g), 7u);
  CHECK_EQ(registry.day(g), 7u);

  // Second day: counters report the delta, gauges the current value.
  registry.add(c, 4);
  registry.set(g, 3);
  registry.merge_day();
  CHECK_EQ(registry.merged(c), 20u);
  CHECK_EQ(registry.day(c), 4u);
  CHECK_EQ(registry.day(g), 3u);

  // An out-of-range lane clamps to lane 0 instead of corrupting
  // memory (documented fallback; loses one-writer, never safety).
  obs::set_lane(99);
  registry.add(c, 1);
  obs::set_lane(0);
  registry.merge_day();
  CHECK_EQ(registry.day(c), 1u);
}

void trace_ring_drops() {
  obs::TraceRing ring(4);
  CHECK_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.span("s", i * 10, i * 10 + 5);
  }
  CHECK_EQ(ring.size(), 4u);
  CHECK_EQ(ring.dropped(), 2u);
  // The chronological PREFIX survives (drop-at-tail, never wrap): the
  // nesting validator in tools/check_trace.py depends on this.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    CHECK_EQ(ring.event(i).ts_ns, i * 10);
    CHECK_EQ(ring.event(i).dur_or_value, 5u);
  }
  ring.counter("c", 100, 42);  // also dropped once full
  CHECK_EQ(ring.dropped(), 3u);
}

}  // namespace

int main(int argc, char** argv) {
  registry_semantics();
  trace_ring_drops();
  determinism_sweep(v6h::test::thread_counts_from_cli(argc, argv, {1, 4, 8}));
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 4})) {
    zero_alloc_with_obs(threads);
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

// Figure 8: responsiveness over time — take each source's day-0
// responsive addresses as a baseline and re-probe them for 14 days.
// QUIC responsiveness of the CT and AXFR sources is tracked separately
// (the Akamai/HDNet flakiness).
//
// This bench doubles as the longitudinal perf tracker: it times every
// run_day of the delta-driven pipeline and writes BENCH_pipeline.json
// (wall time, probes, targets, and heap allocations per day, from the
// counting allocator below) to --out so the perf trajectory is
// machine-readable from CI; any allocation on a warm day fails the
// run. It also times the resolved scan engine's protocol sweep over
// the final hitlist and writes its per-probe cost to BENCH_scan.json.
//
// `--protocols` restricts both the daily scans and the per-source
// longitudinal rows to a subset (QUIC rows need udp443, the ICMP
// baselines need icmp).

#include <chrono>
#include <memory>

#include "bench_common.h"
#include "obs/obs.h"
#include "scan/scan_engine.h"
// Replaces global operator new with the shared counting version the
// zero-alloc test uses, so the per-day series below can report every
// heap allocation a day makes.
#include "util/counting_allocator.h"

using namespace v6h;

namespace {

struct Row {
  std::string label;
  std::vector<ipv6::Address> baseline;
  net::Protocol protocol = net::Protocol::kIcmp;  // "responsive" criterion
  const char* paper_day13 = "";
};

struct DaySeries {
  std::vector<double> day_ms;
  std::vector<std::size_t> new_addresses;
  std::vector<std::size_t> scanned_targets;
  std::vector<std::uint64_t> probes;
  std::vector<std::uint64_t> allocs;  // heap allocations per whole day

  double total_ms() const {
    double out = 0.0;
    for (const double ms : day_ms) out += ms;
    return out;
  }
};

// Streams each day's registry-merged telemetry into the bench series:
// with observability on, BENCH_pipeline numbers come FROM the shared
// registry (one telemetry schema for gates and benches) instead of
// ad-hoc locals. Vectors are pre-reserved by the caller, so on_day
// never allocates inside an audited window.
struct SeriesSink final : obs::TelemetrySink {
  DaySeries* series = nullptr;
  void on_day(const obs::DayTelemetry& t) override {
    series->day_ms.push_back(t.day_ms);
    series->new_addresses.push_back(static_cast<std::size_t>(t.new_addresses));
    series->scanned_targets.push_back(
        static_cast<std::size_t>(t.scanned_targets));
    series->probes.push_back(t.probes);
    series->allocs.push_back(t.allocs);
  }
};

// Run the day loop of `pipeline` (days ending at the horizon), timing
// each run_day and recording the per-day probe and allocation deltas.
// With `obs` attached the per-day numbers stream from the metrics
// registry through a TelemetrySink (run_day's own
// day_ms/new_addresses/probes/allocs); --obs-off falls back to
// hand-timed locals, which is also the obs-overhead baseline the perf
// gate compares against.
DaySeries run_timed_days(hitlist::Pipeline& pipeline, netsim::NetworkSim& sim,
                         const bench::BenchArgs& args,
                         obs::Observability* obs) {
  DaySeries series;
  // Pre-size the bench's own per-day series: their geometric growth
  // would otherwise land inside the measured allocation windows below
  // and show up as phantom pipeline allocs on days 2, 3, 5, 9, 17...
  const auto days = static_cast<std::size_t>(args.days);
  series.day_ms.reserve(days);
  series.new_addresses.reserve(days);
  series.scanned_targets.reserve(days);
  series.probes.reserve(days);
  series.allocs.reserve(days);
  SeriesSink sink;
  sink.series = &series;
  if (obs != nullptr) obs->set_sink(&sink);
  std::uint64_t probes_before = sim.probes_sent();
  for (int i = args.days - 1; i >= 0; --i) {
    const std::uint64_t allocs_before = util::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    const auto report = pipeline.run_day(args.horizon - i);
    const auto stop = std::chrono::steady_clock::now();
    // With obs attached, run_day already streamed this day's entries
    // through the sink.
    if (obs == nullptr) {
      series.day_ms.push_back(
          std::chrono::duration<double, std::milli>(stop - start).count());
      series.new_addresses.push_back(report.new_addresses);
      series.scanned_targets.push_back(report.scanned_targets);
      series.probes.push_back(sim.probes_sent() - probes_before);
      series.allocs.push_back(util::allocation_count() - allocs_before);
    }
    probes_before = sim.probes_sent();
  }
  if (obs != nullptr) obs->set_sink(nullptr);
  return series;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.3f", v[i]);
    if (i) out += ",";
    out += buffer;
  }
  return out + "]";
}

template <typename Int>
std::string json_array(const std::vector<Int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(static_cast<unsigned long long>(v[i]));
  }
  return out + "]";
}

std::string series_json(const char* name, const DaySeries& series) {
  std::string out = "  \"";
  out += name;
  out += "\": {\n    \"day_ms\": " + json_array(series.day_ms);
  out += ",\n    \"new_addresses\": " + json_array(series.new_addresses);
  out += ",\n    \"scanned_targets\": " + json_array(series.scanned_targets);
  out += ",\n    \"probes\": " + json_array(series.probes);
  out += ",\n    \"allocs\": " + json_array(series.allocs);
  out += "\n  }";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 8: 14-day responsiveness by source (baseline = day-0 responders)");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);

  // Untimed warm-up pipeline: the first timed days would otherwise eat
  // the process cold start alone (first-touch page faults, lazy PLT
  // binding, cold icache/branch predictors). A few days through a
  // throwaway pipeline pre-fault the arena the allocator then recycles
  // for the timed run. Observability is attached only after it (and
  // after the universe build), so --metrics and --trace cover exactly
  // the timed pipeline.
  {
    netsim::NetworkSim warm_sim(universe);
    hitlist::Pipeline warm_pipeline(universe, warm_sim, args.pipeline_options(),
                                    &eng);
    const int warm_days = std::min(args.days, 4);
    for (int i = warm_days - 1; i >= 0; --i) {
      (void)warm_pipeline.run_day(args.horizon - i);
    }
  }

  // --obs-off keeps obs null, which is the overhead-gate baseline.
  std::unique_ptr<obs::Observability> observability;
  if (!args.obs_off) {
    obs::ObsOptions obs_options;
    obs_options.tracing = !args.trace_path.empty();
    // Ring sized for the timed run: ~(stage spans + pool_run sweeps +
    // day counters) per day — 64k events (2 MB) covers the default
    // 30-day bench with room to spare; overflow drops tail events and
    // is reported in the trace footer rather than corrupting earlier
    // spans.
    obs_options.trace_capacity = 1u << 16;
    observability = std::make_unique<obs::Observability>(
        obs_options, eng.threads());
    observability->set_alloc_probe(&util::allocation_count);
    eng.set_observability(observability.get());
  }
  obs::Observability* obs = observability.get();

  netsim::NetworkSim sim(universe);
  hitlist::PipelineOptions options = args.pipeline_options();
  options.obs = obs;
  hitlist::Pipeline pipeline(universe, sim, options, &eng);
  const DaySeries series = run_timed_days(pipeline, sim, args, obs);
  // The engine outlives `observability` (declared first in main), so
  // detach now; the scan-cost probe below is not part of the day loop.
  eng.set_observability(nullptr);

  {
    std::string json = "{\n  \"bench\": \"fig8_longitudinal\",\n";
    json += "  \"scale\": " + std::to_string(args.scale) + ",\n";
    json += "  \"days\": " + std::to_string(args.days) + ",\n";
    json += "  \"threads\": " + std::to_string(args.threads) + ",\n";
    json += "  \"hitlist\": " + std::to_string(pipeline.targets().size()) + ",\n";
    json += series_json("incremental", series) + "\n}\n";
    bench::write_file(args.out_dir + "/BENCH_pipeline.json", json);
    std::printf("  day loop: %.1f ms over %d days\n", series.total_ms(),
                args.days);
    // The day-loop zero-allocation contract the counting-allocator
    // test pins at small scale, re-checked here at bench scale: every
    // day after the first (the cold start) allocates nothing.
    for (std::size_t i = 1; i < series.allocs.size(); ++i) {
      if (series.allocs[i] != 0) {
        std::fprintf(stderr,
                     "day %zu allocated %llu times; warm run_day days must "
                     "be allocation-free\n",
                     i + 1, static_cast<unsigned long long>(series.allocs[i]));
        return 1;
      }
    }
  }

  auto& sources = pipeline.source_simulator();
  const int day0 = args.horizon;

  // Scan-engine cost probe: the day's protocol scan over the final
  // hitlist. The resolution cache is built once (sync) the way the
  // pipeline amortizes it across days; the timed loop is pure
  // probing. Deliberately a default-policy schedule (the --protocols
  // subset only): budget and retries would change the probe workload
  // the committed BENCH_scan.json baseline prices.
  {
    // Each rep is one timed sweep and the minimum stands for the
    // sweep, so reps buy noise rejection, not precision: timer and
    // scheduler noise on a shared box is strictly additive, and the
    // mean of a 70 microsecond sweep is hostage to a single
    // preemption in a way a 30-rep minimum is not. One untimed sweep
    // first warms the cache.
    const int resolved_reps = 30;
    scan::ProbeSchedule schedule;
    schedule.protocols = args.protocols;
    scan::ScanEngine scan_engine(sim, &eng);
    scan_engine.sync(pipeline.store(), day0);
    scan::ScanFrame frame;
    scan_engine.scan_store(pipeline.store(), day0, schedule, &frame);
    double resolved_ms = 1e300;
    for (int rep = 0; rep < resolved_reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      scan_engine.scan_store(pipeline.store(), day0, schedule, &frame);
      const auto stop = std::chrono::steady_clock::now();
      resolved_ms = std::min(
          resolved_ms,
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
    const std::size_t targets = frame.rows().size();
    const double sweep_probes = static_cast<double>(targets) *
                                static_cast<double>(args.protocols.size());
    const double resolved_ns =
        sweep_probes > 0 ? resolved_ms * 1e6 / sweep_probes : 0.0;
    char json[512];
    std::snprintf(json, sizeof json,
                  "{\n  \"bench\": \"scan_engine\",\n  \"scale\": %g,\n"
                  "  \"threads\": %d,\n  \"targets\": %zu,\n"
                  "  \"protocols\": %zu,\n  \"resolved_reps\": %d,\n"
                  "  \"resolved_ns_per_probe\": %.2f\n}\n",
                  args.scale, args.threads, targets, args.protocols.size(),
                  resolved_reps, resolved_ns);
    bench::write_file(args.out_dir + "/BENCH_scan.json", json);
    std::printf("  scan cost: resolved %.1f ns/probe\n", resolved_ns);
  }

  // Establish per-source baselines: addresses responsive on day 0.
  auto responsive_subset = [&](const std::vector<ipv6::Address>& addrs,
                               net::Protocol protocol) {
    std::vector<ipv6::Address> out;
    for (const auto& a : addrs) {
      if (sim.probe(a, protocol, day0).responded) out.push_back(a);
    }
    return out;
  };

  std::vector<Row> rows;
  const auto& filter = pipeline.filter();
  auto selected = [&](net::Protocol p) {
    return std::find(args.protocols.begin(), args.protocols.end(), p) !=
           args.protocols.end();
  };
  for (const auto source : netsim::kAllSources) {
    std::vector<ipv6::Address> members;
    for (const auto& a : sources.cumulative(source)) {
      if (!filter.is_aliased(a)) members.push_back(a);
    }
    const char* paper = "";
    switch (source) {
      case netsim::SourceId::kDomainLists: paper = "0.98"; break;
      case netsim::SourceId::kFdns: paper = "0.97"; break;
      case netsim::SourceId::kCt: paper = "0.96"; break;
      case netsim::SourceId::kAxfr: paper = "0.95"; break;
      case netsim::SourceId::kBitnodes: paper = "0.80"; break;
      case netsim::SourceId::kRipeAtlas: paper = "0.98"; break;
      case netsim::SourceId::kScamper: paper = "0.68"; break;
    }
    if (selected(net::Protocol::kIcmp)) {
      rows.push_back({std::string(short_name(source)) + " (ICMP)",
                      responsive_subset(members, net::Protocol::kIcmp),
                      net::Protocol::kIcmp, paper});
    }
    if ((source == netsim::SourceId::kCt ||
         source == netsim::SourceId::kAxfr) &&
        selected(net::Protocol::kUdp443)) {
      rows.push_back({std::string(short_name(source)) + " QUIC",
                      responsive_subset(members, net::Protocol::kUdp443),
                      net::Protocol::kUdp443,
                      source == netsim::SourceId::kCt ? "0.70-0.85 (flaky)"
                                                      : "0.63-0.95 (flaky)"});
    }
  }

  const int horizon_days = 14;
  std::printf("%-14s baseline ", "source");
  for (int day = 0; day < horizon_days; ++day) std::printf(" d%-4d", day);
  std::printf(" paper d13\n");
  for (const auto& row : rows) {
    std::printf("%-14s %8zu ", row.label.c_str(), row.baseline.size());
    double final_rate = 0.0;
    std::vector<double> series;
    for (int day = 0; day < horizon_days; ++day) {
      std::size_t alive = 0;
      for (const auto& a : row.baseline) {
        alive += sim.probe(a, row.protocol, day0 + day).responded;
      }
      const double rate = row.baseline.empty()
                              ? 0.0
                              : static_cast<double>(alive) /
                                    static_cast<double>(row.baseline.size());
      series.push_back(rate);
      final_rate = rate;
      std::printf("%5.2f ", rate);
    }
    std::printf(" %s\n", row.paper_day13);
    (void)final_rate;
  }

  bench::note("\nShape checks: server sources (DL/FDNS/CT/AXFR/Atlas) lose only a");
  bench::note("few percent over two weeks; Bitnodes ~20 % and scamper (CPE) ~32 %;");
  bench::note("CT/AXFR QUIC rates fluctuate day to day (QUIC test deployments).");

  if (obs != nullptr) {
    if (!args.trace_path.empty()) {
      bench::write_file(args.trace_path, obs->trace_json());
      std::printf("  trace: %zu events (%llu dropped) -> %s\n",
                  obs->ring().size(),
                  static_cast<unsigned long long>(obs->ring().dropped()),
                  args.trace_path.c_str());
    }
    if (!args.metrics_path.empty()) {
      bench::write_file(args.metrics_path, obs->metrics_json());
      std::printf("  metrics: %zu series -> %s\n",
                  obs->registry().metric_count(), args.metrics_path.c_str());
    }
  }
  return 0;
}

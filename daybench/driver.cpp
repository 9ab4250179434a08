// Day-loop benchmark driver: runs one named workload of the paper's
// daily hitlist pipeline (collect -> multi-level APD -> de-aliased
// scan) over a seeded universe, checks every timed day's output
// against brute-force oracles outside the timed window, and prints
// the metrics as one JSON object on the last line of stdout.
//
//   daybench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics with observability off;
// --trace 1 is a separate traced run that reports the per-layer
// metrics and writes the Chrome trace to --trace-out. README.md in
// this directory explains the workloads and the measurement rules.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "obs/obs.h"
#include "util/math.h"
#include "util/rng.h"

namespace {

using namespace v6h;
using util::hash64;
using util::median;
using util::splitmix64;

constexpr int kFirstDay = 1;
constexpr int kLastDay = 270;  // the paper's six-month campaign horizon
// A run times at least this many days, so that the p90 of the per-day
// times has ten samples beyond it.
constexpr std::size_t kMinTimedDays = 100;
// ... and at least three passes, so that each campaign day's median
// time is taken over three or more samples.
constexpr std::size_t kMinPasses = 3;
// Set-up (universe build + Pipeline constructor) repeats at least
// kSetupMinRepeats times and until kSetupMinS has passed; setup_s
// reports the median.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 100;
constexpr double kSetupMinS = 1.0;
// Warm-up: a wall-clock floor of sustained load, then consecutive
// blocks of per-day times must agree within kSettleTolerance.
constexpr double kWarmupFloorS = 1.0;
constexpr double kWarmupCapS = 20.0;
constexpr double kSettleTolerance = 0.10;
// Oracle samples per day and per check.
constexpr int kSamples = 32;
// APD probes 16 fan-out addresses per candidate prefix.
constexpr std::uint64_t kFanout = 16;
// Trace ring budget: events one day can record (stage spans, pool_run
// sweeps, day-boundary counters, the driver's own spans) with slack,
// times the traced days one run may hold.
constexpr std::size_t kTraceEventsPerDay = 128;
constexpr std::size_t kMaxTracedDays = 4 * kLastDay;

struct Workload {
  const char* name;
  double scale;
  unsigned threads;
  std::size_t min_targets;
  // Each operation builds a fresh NetworkSim + Pipeline and runs only
  // the horizon's last day (a bulk ingest); otherwise a pass is the
  // whole campaign, days kFirstDay..kLastDay, on one pipeline.
  bool cold_start;
};

constexpr Workload kWorkloads[] = {
    {"campaign", 0.3, 4, 2, false},
    {"campaign_serial", 0.3, 1, 2, false},
    {"cold_start", 0.3, 4, 2, true},
    {"large_hitlist", 3.0, 4, 64, false},
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Resident set size now, in MB (2^20 bytes).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Everything a run_day's output must satisfy, checked from the
// pipeline's public state after the day's timer has stopped:
//  - a seeded sample of scanned rows: never aliased, and the frame mask
//    equals NetworkSim::probe over the schedule's protocols, asked of
//    a separate NetworkSim so the pipeline's probe counter is untouched;
//  - the live aliased-prefix count equals detector().current_aliased();
//  - seeded samples of all rows and of aliased rows: each row's aliased
//    flag equals a brute-force match over current_aliased().
class DayChecker {
 public:
  DayChecker(const netsim::Universe& universe, std::uint64_t seed)
      : oracle_(universe), seed_(seed) {}

  bool check(const hitlist::Pipeline& pipeline,
             const hitlist::Pipeline::DayReport& report, std::uint64_t key) {
    const scan::ScanFrame& frame = report.scan();
    const hitlist::TargetStore& store = pipeline.store();
    const auto& scanned = frame.rows();
    if (frame.day() != report.day || scanned.size() != report.scanned_targets ||
        frame.row_count() != store.size()) {
      return false;
    }
    std::uint64_t h = hash64(seed_, key);
    const auto& protocols = pipeline.options().schedule.protocols;
    for (int i = 0; i < kSamples && !scanned.empty(); ++i) {
      h = splitmix64(h);
      const std::uint32_t row = scanned[h % scanned.size()];
      net::ProtocolMask want = 0;
      for (const auto protocol : protocols) {
        if (oracle_.probe(store.address(row), protocol, report.day).responded) {
          want |= net::mask_of(protocol);
        }
      }
      if (store.aliased(row) || frame.mask_of_row(row) != want) return false;
    }

    const std::vector<ipv6::Prefix> aliased = pipeline.detector().current_aliased();
    if (aliased.size() != report.aliased_prefixes) return false;
    aliased_rows_.clear();
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (store.aliased(row)) aliased_rows_.push_back(static_cast<std::uint32_t>(row));
    }
    auto flag_matches = [&](std::size_t row) {
      const ipv6::Address& a = store.address(row);
      const bool want = std::any_of(aliased.begin(), aliased.end(),
                                    [&](const ipv6::Prefix& p) { return p.contains(a); });
      return store.aliased(row) == want;
    };
    for (int i = 0; i < kSamples && store.size() != 0; ++i) {
      h = splitmix64(h);
      if (!flag_matches(h % store.size())) return false;
      if (!aliased_rows_.empty() &&
          !flag_matches(aliased_rows_[(h >> 32) % aliased_rows_.size()])) {
        return false;
      }
    }
    return true;
  }

 private:
  netsim::NetworkSim oracle_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> aliased_rows_;
};

// Order-sensitive digest of one day's published output: the report
// scalars, the frame tallies and every scanned row's response mask.
std::uint64_t day_digest(const hitlist::Pipeline::DayReport& report) {
  const scan::ScanFrame& frame = report.scan();
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(report.day));
  h = hash64(h, report.new_addresses);
  h = hash64(h, report.aliased_prefixes);
  h = hash64(h, report.scanned_targets);
  for (const auto protocol : net::kAllProtocols) {
    h = hash64(h, frame.responsive_count(protocol));
  }
  h = hash64(h, frame.responsive_any_count());
  for (const std::uint32_t row : frame.rows()) {
    h = hash64(h, (std::uint64_t{row} << 8) | frame.mask_of_row(row));
  }
  return h;
}

// Per-layer sums over the traced days, fed by the obs layer's
// DayTelemetry stream plus the work units the driver reads off the
// pipeline after each traced day.
struct LayerSums : obs::TelemetrySink {
  double stage_ms[obs::kStageCount] = {};
  double day_ms = 0.0;
  std::uint64_t days = 0;
  std::uint64_t new_addresses = 0;
  std::uint64_t scanned_targets = 0;
  std::uint64_t probes = 0;
  std::uint64_t apd_probes = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steals = 0;
  // Driver-side units.
  std::uint64_t refilter_rows = 0;
  std::uint64_t sync_rows = 0;
  std::uint64_t responsive = 0;
  std::uint64_t aliased = 0;
  std::uint64_t pass_apd_probes = 0;  // APD probes of the first traced pass

  void on_day(const obs::DayTelemetry& t) override {
    for (unsigned s = 0; s < obs::kStageCount; ++s) stage_ms[s] += t.stage_ms[s];
    day_ms += t.day_ms;
    ++days;
    new_addresses += t.new_addresses;
    scanned_targets += t.scanned_targets;
    probes += t.probes;
    apd_probes += t.apd_probes;
    pool_tasks += t.pool_tasks;
    pool_steals += t.pool_steals;
  }
};

struct Timing {
  std::vector<double> day_ms;  // one entry per timed day (or operation)
  std::uint64_t failed = 0;
};

hitlist::PipelineOptions pipeline_options(const Workload& workload,
                                          obs::Observability* obs) {
  hitlist::PipelineOptions options;
  options.apd.min_targets = workload.min_targets;
  options.obs = obs;
  return options;
}

// Per-day times robust to transient interference from other tenants
// of the machine: each day of the campaign takes its median time over
// the passes run. On cold_start, where a pass is one operation, every
// operation is its own sample.
std::vector<double> typical_day_ms(const std::vector<double>& day_ms,
                                   std::size_t pass_days) {
  if (pass_days == 1) return day_ms;
  std::vector<double> typical;
  std::vector<double> samples;
  for (std::size_t d = 0; d < pass_days; ++d) {
    samples.clear();
    for (std::size_t i = d; i < day_ms.size(); i += pass_days) samples.push_back(day_ms[i]);
    typical.push_back(median(samples));
  }
  return typical;
}

double days_per_s(const std::vector<double>& day_ms) {
  double total_ms = 0.0;
  for (const double ms : day_ms) total_ms += ms;
  return ratio(static_cast<double>(day_ms.size()) * 1e3, total_ms);
}

class Bench {
 public:
  Bench(const Workload& workload, const netsim::Universe& universe,
        engine::Engine& eng, std::uint64_t seed)
      : workload_(workload), universe_(universe), eng_(eng), checker_(universe, seed) {}

  // One pass: the whole campaign on a fresh pipeline, or one cold-start
  // operation. Only run_day (plus, on cold_start, construction) is
  // timed; checks and digests run between the timed calls.
  void run_pass(obs::Observability* obs, LayerSums* layers, Timing& timing) {
    obs::TraceRing* ring = obs != nullptr ? &obs->ring() : nullptr;
    if (obs != nullptr) {
      eng_.set_observability(obs);
      obs->set_sink(layers);
    }
    const double op_start = now_s();
    netsim::NetworkSim sim(universe_);
    const std::uint64_t ctor_ns = obs::Observability::now_ns();
    hitlist::Pipeline pipeline(universe_, sim, pipeline_options(workload_, obs), &eng_);
    if (ring != nullptr) {
      ring->span("bench.pipeline_ctor", ctor_ns, obs::Observability::now_ns());
    }
    const int first = workload_.cold_start ? kLastDay : kFirstDay;
    for (int day = first; day <= kLastDay; ++day) {
      const std::uint64_t start_ns = obs::Observability::now_ns();
      const double start = workload_.cold_start ? op_start : now_s();
      const auto report = pipeline.run_day(day);
      const double seconds = now_s() - start;
      if (ring != nullptr) {
        ring->counter("bench.day", start_ns, static_cast<std::uint64_t>(day));
        ring->span("bench.run_day", start_ns, obs::Observability::now_ns());
      }
      timing.day_ms.push_back(seconds * 1e3);

      const std::uint64_t check_ns = obs::Observability::now_ns();
      if (layers != nullptr) count_units(pipeline, report, *layers);
      const std::size_t index = static_cast<std::size_t>(day - first);
      const std::uint64_t digest = day_digest(report);
      if (passes_ == 0) reference_.push_back(digest);
      const bool ok = reference_[index] == digest &&
                      checker_.check(pipeline, report, (passes_ << 16) | index);
      if (!ok) ++timing.failed;
      if (ring != nullptr) {
        ring->span("bench.check", check_ns, obs::Observability::now_ns());
      }
    }
    if (obs != nullptr) {
      obs->set_sink(nullptr);
      eng_.set_observability(nullptr);
      if (layers->pass_apd_probes == 0) layers->pass_apd_probes = layers->apd_probes;
    }
    if (passes_ == 0) rss_mb_ = rss_mb();
    ++passes_;
  }

  // Resident set at the end of the first pass, with its pipeline at
  // its fullest.
  double first_pass_rss_mb() const { return rss_mb_; }

  // Whole-run output digest: the first pass's per-day digests folded
  // in day order (later passes are checked against them day by day).
  std::uint64_t digest() const {
    std::uint64_t h = splitmix64(reference_.size());
    for (const std::uint64_t d : reference_) h = hash64(h, d);
    return h;
  }

 private:
  static void count_units(const hitlist::Pipeline& pipeline,
                          const hitlist::Pipeline::DayReport& report,
                          LayerSums& layers) {
    const hitlist::DayDelta& delta = pipeline.last_delta();
    std::vector<std::uint32_t> affected;
    pipeline.store().rows_within_many(delta.became_aliased, &affected);
    pipeline.store().rows_within_many(delta.became_clean, &affected);
    layers.refilter_rows += delta.new_addresses() + affected.size();
    layers.sync_rows += delta.new_addresses() + pipeline.scan_engine().table().rotating_rows();
    layers.responsive += report.scan().responsive_any_count();
    layers.aliased += report.aliased_prefixes;
  }

  const Workload& workload_;
  const netsim::Universe& universe_;
  engine::Engine& eng_;
  DayChecker checker_;
  std::vector<std::uint64_t> reference_;
  std::uint64_t passes_ = 0;
  double rss_mb_ = 0.0;
};

struct Warmup {
  double wall_s = 0.0;
  std::uint64_t days = 0;
  bool settled = false;
};

// Throwaway pipelines of the same workload at the same thread count,
// run until a wall-clock floor of sustained load has passed and two
// consecutive blocks of per-day times agree. Fresh VMs run the first
// second or so of multi-core load at a fraction of the settled speed;
// a fixed day count does not cover that. Destroyed before set-up.
Warmup warm_up(const Workload& workload, const netsim::Universe& universe,
               engine::Engine& eng) {
  const std::uint64_t block_days = workload.cold_start ? 8 : 16;
  const hitlist::PipelineOptions options = pipeline_options(workload, nullptr);
  Warmup warmup;
  const double start = now_s();
  double block_s = 0.0;
  double previous_block_s = 0.0;
  while (!warmup.settled && now_s() - start < kWarmupCapS) {
    netsim::NetworkSim sim(universe);
    const double op_start = now_s();
    hitlist::Pipeline pipeline(universe, sim, options, &eng);
    const int first = workload.cold_start ? kLastDay : kFirstDay;
    for (int day = first; day <= kLastDay && !warmup.settled; ++day) {
      const double day_start = workload.cold_start ? op_start : now_s();
      (void)pipeline.run_day(day);
      block_s += now_s() - day_start;
      if (++warmup.days % block_days != 0) continue;
      warmup.settled = now_s() - start >= kWarmupFloorS && previous_block_s > 0.0 &&
                       std::abs(block_s - previous_block_s) <=
                           kSettleTolerance * previous_block_s;
      previous_block_s = block_s;
      block_s = 0.0;
    }
  }
  warmup.wall_s = now_s() - start;
  return warmup;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "daybench: %s\nusage: daybench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               message);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' || v > max) {
    std::string message = "invalid value for ";
    usage((message + flag).c_str());
  }
  return v;
}

class JsonMetrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  const char* trace_out = nullptr;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = parse_uint("--seed", value, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_uint("--seconds", value, 3600));
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_uint("--trace", value, 1));
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr || !have_seed || seconds <= 0.0 || trace < 0) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  engine::EngineOptions engine_options;
  engine_options.threads =
      std::min(workload->threads, std::max(1u, std::thread::hardware_concurrency()));
  engine::Engine eng(engine_options);
  netsim::UniverseParams params;
  params.scale = workload->scale;
  params.seed = seed;

  Warmup warmup;
  {
    const netsim::Universe universe(params, &eng);
    warmup = warm_up(*workload, universe, eng);
  }
  std::printf("warmup: wall_s=%.3f days=%" PRIu64 " settled=%d\n", warmup.wall_s,
              warmup.days, warmup.settled ? 1 : 0);

  std::unique_ptr<obs::Observability> observability;
  if (trace == 1) {
    obs::ObsOptions obs_options;
    obs_options.tracing = true;
    obs_options.trace_capacity = kTraceEventsPerDay * kMaxTracedDays + 64;
    observability = std::make_unique<obs::Observability>(obs_options, eng.threads());
  }
  obs::Observability* obs = observability.get();

  // Timed set-up, repeated: the universe build, then the Pipeline
  // constructor (not part of setup_s on cold_start, whose operations
  // construct their own). The last universe is kept for the passes.
  std::vector<double> setup_s;
  std::vector<double> universe_s;
  std::vector<double> ctor_s;
  std::unique_ptr<netsim::Universe> universe;
  double setup_total_s = 0.0;
  for (int k = 0; k < kSetupMinRepeats ||
                  (setup_total_s < kSetupMinS && k < kSetupMaxRepeats);
       ++k) {
    universe.reset();
    const std::uint64_t start_ns = obs::Observability::now_ns();
    const double start = now_s();
    universe = std::make_unique<netsim::Universe>(params, &eng);
    universe_s.push_back(now_s() - start);
    if (obs != nullptr) {
      obs->ring().span("bench.universe", start_ns, obs::Observability::now_ns());
    }
    {
      netsim::NetworkSim sim(*universe);
      const std::uint64_t ctor_ns = obs::Observability::now_ns();
      const double ctor_start = now_s();
      const hitlist::Pipeline pipeline(*universe, sim, pipeline_options(*workload, nullptr),
                                       &eng);
      ctor_s.push_back(now_s() - ctor_start);
      if (obs != nullptr) {
        obs->ring().span("bench.pipeline_ctor", ctor_ns, obs::Observability::now_ns());
      }
    }
    setup_s.push_back(universe_s.back() + (workload->cold_start ? 0.0 : ctor_s.back()));
    setup_total_s += setup_s.back();
  }

  Bench bench(*workload, *universe, eng, seed);
  Timing timing;
  Timing traced;
  LayerSums layers;
  const std::size_t pass_days = workload->cold_start ? 1 : kLastDay - kFirstDay + 1;
  // Hand the memory that warm-up and set-up freed back to the kernel,
  // so the resident set sampled after the first pass does not depend
  // on which per-thread malloc arenas those phases happened to grow.
  // That first pass is the reference the later ones must reproduce; it
  // is checked but not timed, since it re-faults the trimmed memory.
  malloc_trim(0);
  Timing reference;
  bench.run_pass(nullptr, nullptr, reference);
  const double start = now_s();
  if (trace == 0) {
    while (now_s() - start < seconds || timing.day_ms.size() < kMinTimedDays ||
           timing.day_ms.size() < kMinPasses * pass_days) {
      bench.run_pass(nullptr, nullptr, timing);
    }
  } else {
    // Untraced and traced passes alternate, so both see the same
    // machine state; their throughput ratio is the tracing overhead.
    while ((now_s() - start < seconds || timing.day_ms.size() < kMinTimedDays ||
            traced.day_ms.size() < kMinTimedDays) &&
           traced.day_ms.size() + pass_days <= kMaxTracedDays) {
      bench.run_pass(nullptr, nullptr, timing);
      bench.run_pass(obs, &layers, traced);
    }
  }
  const double wall_s = now_s() - start;

  const std::uint64_t days =
      reference.day_ms.size() + timing.day_ms.size() + traced.day_ms.size();
  const std::uint64_t failed = reference.failed + timing.failed + traced.failed;
  std::printf("workload=%s seed=%" PRIu64 " threads=%u days=%" PRIu64
              " wall_s=%.3f failed_day_share=%.6f digest=%016" PRIx64 "\n",
              workload->name, seed, eng.threads(), days, wall_s,
              ratio(static_cast<double>(failed), static_cast<double>(days)),
              bench.digest());

  JsonMetrics metrics;
  if (trace == 0) {
    metrics.add("setup_s", median(setup_s), "s");
    const std::vector<double> day_ms = typical_day_ms(timing.day_ms, pass_days);
    metrics.add("days_per_s", days_per_s(day_ms), "day/s");
    metrics.add("day_ms_p50", percentile(day_ms, 0.5), "ms");
    metrics.add("day_ms_p90", percentile(day_ms, 0.9), "ms");
    metrics.add("peak_rss_mb", bench.first_pass_rss_mb(), "MB");
  } else {
    if (trace_out != nullptr) {
      std::FILE* f = std::fopen(trace_out, "w");
      const std::string json = obs->trace_json();
      if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
          std::fclose(f) != 0) {
        std::fprintf(stderr, "daybench: could not write %s\n", trace_out);
        return 1;
      }
    }
    const double n = static_cast<double>(layers.days);
    auto per_day = [&](obs::Stage s) {
      return ratio(layers.stage_ms[static_cast<unsigned>(s)], n);
    };
    auto ns_per = [&](obs::Stage s, std::uint64_t units) {
      return ratio(layers.stage_ms[static_cast<unsigned>(s)] * 1e6,
                   static_cast<double>(units));
    };
    double stages_ms = 0.0;
    for (unsigned s = 0; s < static_cast<unsigned>(obs::Stage::kPoolRun); ++s) {
      stages_ms += layers.stage_ms[s];
    }
    const std::uint64_t scan_probes = layers.probes - layers.apd_probes;
    using obs::Stage;
    metrics.add("sources.collect_ms", per_day(Stage::kCollect), "ms");
    metrics.add("sources.collect_ns_per_address", ns_per(Stage::kCollect, layers.new_addresses),
                "ns");
    metrics.add("apd.candidates_ms", per_day(Stage::kCandidates), "ms");
    metrics.add("apd.candidates_ns_per_address",
                ns_per(Stage::kCandidates, layers.new_addresses), "ns");
    metrics.add("apd.fanout_ms", per_day(Stage::kApd), "ms");
    metrics.add("apd.fanout_ns_per_probe", ns_per(Stage::kApd, layers.apd_probes), "ns");
    metrics.add("apd.probes", static_cast<double>(layers.pass_apd_probes), "count");
    metrics.add("apd.aliased_per_candidate",
                ratio(static_cast<double>(layers.aliased),
                      static_cast<double>(layers.apd_probes / kFanout)),
                "ratio");
    metrics.add("hitlist.refilter_ms", per_day(Stage::kRefilter), "ms");
    metrics.add("hitlist.refilter_ns_per_row", ns_per(Stage::kRefilter, layers.refilter_rows),
                "ns");
    metrics.add("hitlist.ctor_ms", median(ctor_s) * 1e3, "ms");
    metrics.add("netsim.universe_ms", median(universe_s) * 1e3, "ms");
    metrics.add("scan.sync_ms", per_day(Stage::kScanSync), "ms");
    metrics.add("scan.sync_ns_per_row", ns_per(Stage::kScanSync, layers.sync_rows), "ns");
    metrics.add("scan.probe_ms", per_day(Stage::kScanProbe), "ms");
    metrics.add("scan.probe_ns_per_probe", ns_per(Stage::kScanProbe, scan_probes), "ns");
    metrics.add("scan.frame_finish_ms", per_day(Stage::kFrameFinish), "ms");
    metrics.add("scan.responsive_ratio",
                ratio(static_cast<double>(layers.responsive),
                      static_cast<double>(layers.scanned_targets)),
                "ratio");
    metrics.add("engine.pool_run_ms", per_day(Stage::kPoolRun), "ms");
    metrics.add("engine.parallel_share",
                ratio(layers.stage_ms[static_cast<unsigned>(Stage::kPoolRun)], layers.day_ms),
                "ratio");
    metrics.add("engine.tasks", ratio(static_cast<double>(layers.pool_tasks), n), "count");
    metrics.add("engine.steal_ratio",
                ratio(static_cast<double>(layers.pool_steals),
                      static_cast<double>(layers.pool_tasks)),
                "ratio");
    metrics.add("day.self_ms", ratio(layers.day_ms - stages_ms, n), "ms");
    metrics.add("obs.trace_overhead_ratio",
                ratio(days_per_s(typical_day_ms(traced.day_ms, pass_days)),
                      days_per_s(typical_day_ms(timing.day_ms, pass_days))),
                "ratio");
    metrics.add("obs.trace_dropped", static_cast<double>(obs->ring().dropped()), "count");
    metrics.add("warmup.wall_s", warmup.wall_s, "s");
    metrics.add("warmup.days", static_cast<double>(warmup.days), "count");
    metrics.add("check.failed_day_share",
                ratio(static_cast<double>(failed), static_cast<double>(days)), "ratio");
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", days, failed, metrics.body().c_str());
  return 0;
}

// The day-loop zero-allocation contract: once the pipeline is warm,
// an entire run_day — collect, candidate counting, APD verdicts and
// fan-out, per-row aliased counts, resolution-cache extension, and the
// protocol scan — performs ZERO heap allocations, measured with the
// global counting allocator across ALL threads. Flip days (days whose
// APD verdicts move prefixes in or out of the aliased set, stepping
// their members' counts) are explicitly required in the checked
// window: verdict application is the most tempting place to allocate,
// so a window without flips would prove nothing about it. The
// contract covers retrying schedules too: the retry pass re-probes
// misses every day. At min_targets 1 every tracked prefix is an APD
// candidate, so a whole 270-day campaign at that threshold drives the
// candidate lists to their largest size. The bench-scale window
// (the default universe at scale 0.3, days 241-270, the last 30 days
// of the paper's horizon) flips verdicts every day and is quiet from
// its second day on.
//
// Static complement: tools/symlint.py --policy noalloc walks the
// machine-code call graph from Pipeline::run_day and the stage entry
// points and proves no allocation route exists outside the
// capacity-elastic allowlist; this test proves those elastic routes
// actually go quiet.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "test_main.h"
#include "util/counting_allocator.h"

using namespace v6h;

namespace {

// One checked window of a campaign: days [first_day, first_day +
// total_days), the first `warmup_days` absorbing the cold start
// (capacity warm-up in the reserved-but-cold corners); every later
// day must be allocation-quiet, flips included.
struct QuietWindow {
  const char* label = "default schedule";
  std::uint64_t seed = 5;
  double scale = 0.05;
  std::uint32_t tail_as_count = 300;
  std::size_t min_targets = apd::ApdOptions{}.min_targets;
  // Mid-campaign by default: source growth has ramped, APD verdicts
  // are live.
  int first_day = 100;
  int total_days = 18;
  int warmup_days = 2;
  scan::ProbeSchedule schedule;
};

void run_quiet_days(unsigned threads, const QuietWindow& window) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  netsim::UniverseParams params;
  params.seed = window.seed;
  params.scale = window.scale;
  params.tail_as_count = window.tail_as_count;
  const netsim::Universe universe(params, &eng);
  netsim::NetworkSim sim(universe);
  hitlist::PipelineOptions options;
  options.schedule = window.schedule;
  options.apd.min_targets = window.min_targets;
  hitlist::Pipeline pipeline(universe, sim, options, &eng);

  std::size_t flips_in_window = 0;
  std::size_t responsive_total = 0;
  std::vector<std::uint64_t> allocs_per_day;
  allocs_per_day.reserve(static_cast<std::size_t>(window.total_days));
  for (int d = 0; d < window.total_days; ++d) {
    const std::uint64_t before = util::allocation_count();
    const auto report = pipeline.run_day(window.first_day + d);
    responsive_total += report.scan().responsive_any_count();
    allocs_per_day.push_back(util::allocation_count() - before);
    if (d >= window.warmup_days) {
      flips_in_window += !pipeline.last_delta().became_aliased.empty() ||
                         !pipeline.last_delta().became_clean.empty();
    }
  }
  CHECK(responsive_total > 0);  // the days did real scan work
  // The window must contain at least one verdict-flip day, or the
  // claim below would silently skip the count-stepping path.
  CHECK(flips_in_window > 0);
  for (int d = window.warmup_days; d < window.total_days; ++d) {
    const auto allocs = allocs_per_day[static_cast<std::size_t>(d)];
    CHECK_EQ(allocs, 0u);
    if (allocs != 0) {
      std::fprintf(stderr, "  day %d (threads %u, %s): %llu allocations\n",
                   window.first_day + d, threads, window.label,
                   static_cast<unsigned long long>(allocs));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const QuietWindow default_schedule;
  QuietWindow retrying;
  retrying.label = "retries 2";
  retrying.schedule.retries = 2;
  QuietWindow every_prefix;
  every_prefix.label = "min_targets 1, days 1-270";
  every_prefix.seed = 1;
  every_prefix.min_targets = 1;
  every_prefix.first_day = 1;
  every_prefix.total_days = 270;
  QuietWindow bench_scale;
  bench_scale.label = "scale 0.3, days 241-270";
  bench_scale.seed = netsim::UniverseParams{}.seed;
  bench_scale.scale = 0.3;
  bench_scale.tail_as_count = netsim::UniverseParams{}.tail_as_count;
  bench_scale.first_day = 241;
  bench_scale.total_days = 30;
  bench_scale.warmup_days = 1;
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 4})) {
    run_quiet_days(threads, default_schedule);
    run_quiet_days(threads, retrying);
    run_quiet_days(threads, every_prefix);
    run_quiet_days(threads, bench_scale);
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

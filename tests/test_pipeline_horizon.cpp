// The paper's full 270-day campaign horizon under the day oracle:
// seed 1 over days 1-270 at threads {1,4}, every day through
// run_checked_day. That compares the detector's incremental candidate
// counts against the full recount on every day, through the CT source
// ramp that starts after day 59 and through the age-outs of the
// one-day verdict window. The campaign must also stay inside the row
// bound the Pipeline pre-sized for, and its digest line must be
// identical for every thread count.
//
// Accepts `--threads N` (repeatable) for extra thread counts.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "day_oracle.h"
#include "net/protocol.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;

namespace {

constexpr int kLastDay = 270;

// Runs the campaign at `threads` and returns its fingerprint line.
std::string run_horizon(unsigned threads) {
  test::OracleCampaign campaign(1, threads);
  hitlist::Pipeline& pipeline = campaign.pipeline;
  // Order-sensitive digest of every day report: scalars, tallies and
  // each scanned row's mask.
  std::uint64_t digest = 0;
  auto add = [&digest](std::uint64_t value) {
    digest = util::hash64(digest, value);
  };
  std::size_t age_out_days = 0;
  std::size_t rows_on_day[kLastDay + 1] = {};
  for (int day = 1; day <= kLastDay; ++day) {
    const auto report = campaign.run_day(day);
    const auto& frame = report.scan();
    add(report.new_addresses);
    add(report.aliased_prefixes);
    add(report.scanned_targets);
    for (const auto protocol : net::kAllProtocols) {
      add(frame.responsive_count(protocol));
    }
    for (const auto row : frame.rows()) {
      add((std::uint64_t{row} << 8) | frame.mask_of_row(row));
    }
    age_out_days += !pipeline.last_delta().became_clean.empty();
    rows_on_day[day] = pipeline.store().size();
  }
  // The one-day window let prefixes age out in-run.
  CHECK(age_out_days > 0);
  // The CT ramp arrives: the 30 days after day 59 add more rows than
  // the 30 days before it.
  CHECK(rows_on_day[89] - rows_on_day[59] > rows_on_day[59] - rows_on_day[29]);
  // The campaign stays within the hitlist bound the Pipeline reserved.
  CHECK(rows_on_day[kLastDay] <=
        pipeline.source_simulator().max_unique_addresses());

  char line[160];
  std::snprintf(line, sizeof line,
                "seed 1 days 1-%d: %zu rows on day %d, %zu age-out days, "
                "%llu probes, digest %016llx",
                kLastDay, rows_on_day[kLastDay], kLastDay, age_out_days,
                static_cast<unsigned long long>(campaign.sim.probes_sent()),
                static_cast<unsigned long long>(digest));
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<unsigned> thread_counts =
      test::thread_counts_from_cli(argc, argv, {1, 4});
  const std::string base = run_horizon(thread_counts.front());
  for (std::size_t t = 1; t < thread_counts.size(); ++t) {
    test::check_identical(base, run_horizon(thread_counts[t]),
                          "threads " + std::to_string(thread_counts[t]));
  }
  std::printf("%s\n", base.c_str());
  std::printf("%d checks, %d failures\n", test::checks, test::failures);
  return test::failures == 0 ? 0 : 1;
}

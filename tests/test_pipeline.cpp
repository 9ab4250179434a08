// End-to-end Pipeline::run_day: collection grows, APD catches truly
// aliased space without flagging honest space, scans carry response
// masks, and the whole thing is deterministic.

#include "hitlist/pipeline.h"
#include "hitlist/stats.h"
#include "test_main.h"

using namespace v6h;

static void run_tests() {
  netsim::UniverseParams params;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);

  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim);

  const auto day1 = pipeline.run_day(268);
  const auto day2 = pipeline.run_day(269);
  const auto day3 = pipeline.run_day(270);

  // The hitlist accumulates and the later days only add the fresh part.
  CHECK(day1.new_addresses > 0);
  CHECK(!pipeline.targets().empty());
  CHECK(day1.new_addresses > day3.new_addresses);
  CHECK_EQ(pipeline.targets().size(),
           day1.new_addresses + day2.new_addresses + day3.new_addresses);

  // APD found aliased space, and verdicts are sound: flagged addresses
  // are mostly truly aliased, and plenty of aliased targets are caught.
  const auto& detector = pipeline.detector();
  const auto& store = pipeline.store();
  CHECK(day3.aliased_prefixes > 0);
  CHECK_EQ(detector.aliased_count(), day3.aliased_prefixes);
  CHECK_EQ(detector.current_aliased().size(), day3.aliased_prefixes);
  std::size_t flagged = 0, flagged_correct = 0, truly = 0, caught = 0;
  for (std::size_t row = 0; row < store.size(); ++row) {
    const auto& a = store.address(row);
    const bool mine = store.aliased(row);
    const bool truth = universe.truly_aliased_at(a);
    flagged += mine;
    flagged_correct += mine && truth;
    truly += truth;
    caught += mine && truth;
  }
  CHECK(flagged > 0);
  CHECK(truly > 0);
  // No false positives by construction (16/16 random addresses).
  CHECK_EQ(flagged, flagged_correct);
  // The bulk of truly aliased hitlist addresses is detected.
  CHECK(caught * 10 >= truly * 6);

  // Columnar store: rows align with targets(), and each row's aliased
  // count is the detector's answer for its address.
  CHECK_EQ(store.size(), pipeline.targets().size());
  for (std::size_t row = 0; row < store.size(); ++row) {
    CHECK(store.address(row) == pipeline.targets()[row]);
    CHECK_EQ(static_cast<unsigned>(store.aliased()[row]),
             detector.aliased_cover(store.address(row)));
  }

  // Prefix range queries find exactly the contained rows.
  {
    const auto p = detector.current_aliased().front();
    std::vector<std::uint32_t> rows;
    store.rows_within(p, &rows);
    std::size_t brute = 0;
    for (const auto& a : pipeline.targets()) brute += p.contains(a);
    CHECK_EQ(rows.size(), brute);
    CHECK(brute > 0);
    for (const auto row : rows) CHECK(p.contains(store.address(row)));
  }

  // The last delta describes day 3.
  const auto& delta = pipeline.last_delta();
  CHECK_EQ(delta.day, 270);
  CHECK_EQ(delta.new_addresses(), day3.new_addresses);
  CHECK_EQ(delta.row_count, store.size());

  // Scan frame: non-aliased targets only, masks consistent.
  const auto& frame = day3.scan();
  CHECK_EQ(frame.rows().size(), day3.scanned_targets);
  CHECK_EQ(frame.day(), 270);
  CHECK_EQ(frame.row_count(), store.size());
  CHECK(day3.scanned_targets < pipeline.targets().size());
  std::size_t responsive = 0;
  for (const auto row : frame.rows()) {
    CHECK_EQ(detector.aliased_cover(frame.address_of_row(row)), 0u);
    responsive += frame.mask_of_row(row) != 0;
  }
  CHECK(responsive > 0);
  CHECK(responsive < frame.rows().size());
  CHECK_EQ(frame.responsive_any_count(), responsive);

  // Distribution summaries are consistent with the hitlist.
  const auto summary =
      hitlist::summarize_distribution(pipeline.targets(), universe.bgp());
  CHECK_EQ(summary.addresses, pipeline.targets().size());
  CHECK(summary.ases > 1);
  CHECK(summary.prefixes >= summary.ases / 2);
  CHECK(!summary.as_curve.empty());
  CHECK_NEAR(summary.as_curve.back(), 1.0, 1e-9);

  // Full determinism: an identical pipeline reproduces the reports.
  netsim::NetworkSim sim2(universe);
  hitlist::Pipeline pipeline2(universe, sim2);
  pipeline2.run_day(268);
  pipeline2.run_day(269);
  const auto day3_again = pipeline2.run_day(270);
  CHECK_EQ(day3_again.new_addresses, day3.new_addresses);
  CHECK_EQ(day3_again.aliased_prefixes, day3.aliased_prefixes);
  CHECK_EQ(day3_again.scanned_targets, day3.scanned_targets);
  CHECK(pipeline2.targets() == pipeline.targets());
  CHECK_EQ(day3_again.scan().responsive_any_count(),
           day3.scan().responsive_any_count());

  // The sources the pipeline drives are reachable and populated.
  auto& sources = pipeline.source_simulator();
  for (const auto source : netsim::kAllSources) {
    CHECK(!sources.cumulative(source).empty());
  }
}

TEST_MAIN()

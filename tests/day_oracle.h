#pragma once

// Per-day oracles for hitlist::Pipeline: after each run_day, check the
// day's state directly against brute-force references instead of
// diffing two production pipelines.
//
//  - The APD batch, detector().candidates(), equals the full recount
//    AliasDetector::candidate_prefixes(targets()), in crossing order
//    (the detector's incremental per-prefix counts must never drift,
//    and a candidate's index never moves).
//  - Each candidate's cached plan, detector().plans()[i], equals a
//    fresh plan_fanout(candidate i, the APD protocol) on the reference
//    NetworkSim field by field: cursor node, best, depth and kind. A
//    verdict check alone would pass a cursor taken higher up the trie
//    (it resolves the same zones but walks a longer path), and a kind
//    that is wrong only on days the checked verdicts do not show.
//  - Raw verdict i, detector().outcome(i), is "aliased" iff all 16 of
//    candidate i's fan-out addresses answer NetworkSim::probe at
//    seq = nybble, on the reference NetworkSim below.
//  - report.aliased_prefixes equals current_aliased().size().
//  - The transition lists in last_delta() equal what current_aliased()
//    gained and lost across the day, in strictly ascending order.
//  - Every row's aliased byte in store().aliased() equals a linear
//    Prefix::contains count over current_aliased(), and so does
//    detector().aliased_cover(row address). A yes/no check would miss
//    a count that is off by one but still nonzero.
//  - scan().rows() equals the first schedule.admitted_targets(n) of
//    the n ascending unaliased rows (all of them without a budget).
//  - Every scanned row's protocol bit is set iff NetworkSim::probe
//    answers at some seq 0..retries, probed on a separate reference
//    NetworkSim so the pipeline's probe counter stays untouched.
//  - The day's probes_sent() delta equals 16 x batch size + the
//    reference's probe count when each (row, protocol) stops at its
//    first answer, as the scan's retry pass does.
//
// OracleCampaign holds the mid-campaign scenario both day-loop tests
// sweep (test_pipeline_incremental, test_scan_equivalence).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "ipv6/prefix.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "test_main.h"
#include "util/rng.h"

namespace v6h::test {

/// Run `pipeline`'s day `day` and check it against the oracles above.
/// `sim` is the pipeline's NetworkSim (for the probe-count delta) and
/// `reference` a second NetworkSim over the same universe. Any
/// protocol set, budget and retry count is checked.
inline hitlist::Pipeline::DayReport run_checked_day(hitlist::Pipeline& pipeline,
                                                    netsim::NetworkSim& sim,
                                                    netsim::NetworkSim& reference,
                                                    int day) {
  const scan::ProbeSchedule& schedule = pipeline.options().schedule;
  const std::vector<ipv6::Prefix> aliased_before =
      pipeline.detector().current_aliased();
  const std::uint64_t probes_before = sim.probes_sent();
  const auto report = pipeline.run_day(day);
  const std::uint64_t day_probes = sim.probes_sent() - probes_before;

  const auto& detector = pipeline.detector();
  const auto& candidates = detector.candidates();
  const auto& plans = detector.plans();
  CHECK(candidates == detector.candidate_prefixes(pipeline.targets()));
  CHECK_EQ(plans.size(), candidates.size());
  const std::size_t batch = std::min(candidates.size(), plans.size());
  const net::Protocol apd_protocol = pipeline.options().apd.protocol;
  std::size_t plan_mismatches = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    const netsim::FanoutPlan fresh =
        reference.plan_fanout(candidates[i], apd_protocol);
    plan_mismatches += plans[i].cursor.node != fresh.cursor.node ||
                       plans[i].cursor.best != fresh.cursor.best ||
                       plans[i].cursor.depth != fresh.cursor.depth ||
                       plans[i].kind != fresh.kind;
  }
  CHECK_EQ(plan_mismatches, 0u);
  // Each raw verdict against its 16 addresses probed one by one, at
  // seq = nybble. These reference probes stay outside the counter
  // window the probe-count check below reads.
  std::size_t fanout_mismatches = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    unsigned answered = 0;
    for (unsigned nybble = 0; nybble < 16; ++nybble) {
      const ipv6::Address target = candidates[i].fanout_address(
          nybble, util::hash64(day, nybble, 0xA9D));
      answered += reference.probe(target, apd_protocol, day, nybble).responded;
    }
    fanout_mismatches += detector.outcome(i) != (answered == 16);
  }
  CHECK_EQ(fanout_mismatches, 0u);
  const std::vector<ipv6::Prefix> aliased = detector.current_aliased();
  CHECK_EQ(report.aliased_prefixes, aliased.size());
  // Equal to the sorted set differences, so both lists are strictly
  // ascending and, as sets, the day's change in the aliased set.
  const auto& delta = pipeline.last_delta();
  std::vector<ipv6::Prefix> gained, lost;
  std::set_difference(aliased.begin(), aliased.end(), aliased_before.begin(),
                      aliased_before.end(), std::back_inserter(gained));
  std::set_difference(aliased_before.begin(), aliased_before.end(),
                      aliased.begin(), aliased.end(), std::back_inserter(lost));
  CHECK(delta.became_aliased == gained);
  CHECK(delta.became_clean == lost);

  const auto& store = pipeline.store();
  std::vector<std::uint32_t> unaliased;
  std::size_t count_mismatches = 0;
  std::size_t cover_mismatches = 0;
  for (std::size_t row = 0; row < store.size(); ++row) {
    unsigned covering = 0;
    for (const auto& prefix : aliased) {
      covering += prefix.contains(store.address(row));
    }
    count_mismatches += static_cast<unsigned>(store.aliased()[row]) != covering;
    cover_mismatches += detector.aliased_cover(store.address(row)) != covering;
    if (covering == 0) unaliased.push_back(static_cast<std::uint32_t>(row));
  }
  CHECK_EQ(count_mismatches, 0u);
  CHECK_EQ(cover_mismatches, 0u);

  const auto& frame = report.scan();
  unaliased.resize(schedule.admitted_targets(unaliased.size()));
  CHECK(frame.rows() == unaliased);
  CHECK_EQ(report.scanned_targets, frame.rows().size());
  const std::uint64_t reference_before = reference.probes_sent();
  std::size_t mask_mismatches = 0;
  for (const auto row : frame.rows()) {
    net::ProtocolMask expected = 0;
    for (const auto protocol : schedule.protocols) {
      for (unsigned seq = 0; seq <= schedule.retries; ++seq) {
        if (reference.probe(store.address(row), protocol, day, seq).responded) {
          expected |= net::mask_of(protocol);
          break;
        }
      }
    }
    mask_mismatches += frame.mask_of_row(row) != expected;
  }
  CHECK_EQ(mask_mismatches, 0u);
  CHECK_EQ(day_probes, 16 * candidates.size() +
                           (reference.probes_sent() - reference_before));
  return report;
}

/// A pipeline over a fresh seed-`seed` universe (scale 0.05, 300 tail
/// ASes) with a one-day APD window, so prefixes age out in-run, and
/// the reference NetworkSim its oracles probe. `min_targets` is the
/// APD candidate threshold (ApdOptions' default unless given).
struct OracleCampaign {
  static constexpr int kFirstDay = 150;  // mid-campaign: growth + flicker
  static constexpr int kDays = 10;

  engine::Engine eng;
  netsim::Universe universe;
  netsim::NetworkSim sim;
  netsim::NetworkSim reference;
  hitlist::Pipeline pipeline;

  OracleCampaign(std::uint64_t seed, unsigned threads,
                 scan::ProbeSchedule schedule = {},
                 std::size_t min_targets = apd::ApdOptions{}.min_targets)
      : eng(engine::EngineOptions{threads}),
        universe(universe_params(seed), &eng),
        sim(universe),
        reference(universe),
        pipeline(universe, sim,
                 pipeline_options(std::move(schedule), min_targets), &eng) {}

  /// Run `day` and check it against the oracles.
  hitlist::Pipeline::DayReport run_day(int day) {
    return run_checked_day(pipeline, sim, reference, day);
  }

 private:
  static netsim::UniverseParams universe_params(std::uint64_t seed) {
    netsim::UniverseParams params;
    params.seed = seed;
    params.scale = 0.05;
    params.tail_as_count = 300;
    return params;
  }
  static hitlist::PipelineOptions pipeline_options(
      scan::ProbeSchedule schedule, std::size_t min_targets) {
    hitlist::PipelineOptions options;
    options.apd.window_days = 1;
    options.apd.min_targets = min_targets;
    options.schedule = std::move(schedule);
    return options;
  }
};

/// Check two fingerprints are byte-identical; on a mismatch, report
/// the first differing byte under `label`.
inline void check_identical(const std::string& base, const std::string& other,
                            const std::string& label) {
  const bool identical = other == base;
  CHECK(identical);
  if (identical) return;
  std::size_t at = 0;
  while (at < base.size() && at < other.size() && base[at] == other[at]) {
    ++at;
  }
  std::fprintf(stderr, "  %s diverges at byte %zu\n", label.c_str(), at);
}

}  // namespace v6h::test

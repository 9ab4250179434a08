// The resolved-probe contract: the scan's responded bit, read through
// a cached resolution (NetworkSim::resolve + probe_resolved_mask),
// must equal NetworkSim::probe for every kind of address the universe
// can produce — aliased space, carve-out islands, honest hosts, dead
// discoverable addresses, rotating privacy addresses across epoch
// boundaries, and unrouted space — for all protocols, several days,
// and several seq values. Also covers ScanEngine::scan_addresses
// against a per-target NetworkSim::probe loop, and the ProbeSchedule
// budget/retry scenarios.

#include <numeric>
#include <vector>

#include "engine/engine.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "probe_targets.h"
#include "scan/probe_schedule.h"
#include "scan/resolved_table.h"
#include "scan/scan_engine.h"
#include "test_main.h"

using namespace v6h;

namespace {

std::vector<ipv6::Address> probe_targets(const netsim::Universe& universe,
                                         int day) {
  return test::probe_targets(universe, day, /*zone_stride=*/7, /*seed=*/0xbeef);
}

void run_probe_equivalence() {
  netsim::UniverseParams params;
  params.seed = 7;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);

  std::size_t rotating_seen = 0;
  std::size_t mismatches = 0;
  // Days spaced to cross rotation epochs (ISP zones rotate every
  // 25..55 days with phases up to 60).
  for (const int day : {0, 13, 61, 200}) {
    const auto targets = probe_targets(universe, day);
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), day);
    rotating_seen += table.rotating_rows();
    const auto cols = table.columns();
    // The mask sweep scatters by row id, so the output buffer is
    // row-indexed like a ScanFrame's mask column.
    std::vector<net::ProtocolMask> masks(targets.size(), 0);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint32_t row = static_cast<std::uint32_t>(i);
      for (const auto protocol : net::kAllProtocols) {
        for (const unsigned seq : {0u, 3u}) {
          masks[row] = 0;
          sim.probe_resolved_mask(cols, &row, 1, protocol, day, seq,
                                  masks.data());
          mismatches += (masks[row] != 0) !=
                        sim.probe(targets[i], protocol, day, seq).responded;
        }
      }
    }
  }
  CHECK_EQ(mismatches, 0u);
  CHECK(rotating_seen > 0);  // the sweep must cover rotating zones

  // A table extended at day D then refreshed across an epoch boundary
  // must answer like a fresh resolution at the later day.
  {
    const int day0 = 0;
    const int day1 = 120;  // far past every zone's first rotation
    const auto targets = probe_targets(universe, day0);
    scan::ResolvedTargetTable table(sim);
    table.extend(targets.data(), targets.size(), day0);
    table.refresh(targets.data(), day1);
    const auto cols = table.columns();
    std::vector<std::uint32_t> rows(targets.size());
    std::iota(rows.begin(), rows.end(), 0u);
    std::size_t stale = 0;
    for (const auto protocol : net::kAllProtocols) {
      std::vector<net::ProtocolMask> masks(targets.size(), 0);
      sim.probe_resolved_mask(cols, rows.data(), rows.size(), protocol, day1, 0,
                              masks.data());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        stale += (masks[i] != 0) !=
                 sim.probe(targets[i], protocol, day1, 0).responded;
      }
    }
    CHECK_EQ(stale, 0u);
  }
}

void run_scan_equivalence(const std::vector<unsigned>& thread_counts) {
  netsim::UniverseParams params;
  params.seed = 11;
  params.scale = 0.05;
  params.tail_as_count = 200;
  const netsim::Universe universe(params);
  const int day = 42;
  std::vector<ipv6::Address> targets = probe_targets(universe, day);

  // Reference: one NetworkSim::probe per target and protocol.
  netsim::NetworkSim reference_sim(universe);
  std::vector<net::ProtocolMask> expected(targets.size(), 0);
  std::size_t expected_any = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (const auto protocol : net::kAllProtocols) {
      if (reference_sim.probe(targets[i], protocol, day).responded) {
        expected[i] |= net::mask_of(protocol);
      }
    }
    expected_any += expected[i] != 0;
  }
  CHECK(expected_any > 0);

  for (const unsigned threads : thread_counts) {
    engine::EngineOptions engine_options;
    engine_options.threads = threads;
    engine::Engine eng(engine_options);
    netsim::NetworkSim sim(universe);
    scan::ScanEngine scan_engine(sim, &eng);
    scan::ScanFrame frame;
    scan_engine.scan_addresses(targets, day, scan::ProbeSchedule{}, &frame);
    CHECK_EQ(frame.rows().size(), targets.size());
    std::size_t diff = 0;
    for (const auto row : frame.rows()) {
      diff += frame.address_of_row(row) != targets[row];
      diff += frame.mask_of_row(row) != expected[row];
    }
    CHECK_EQ(diff, 0u);
    CHECK_EQ(frame.responsive_any_count(), expected_any);
    for (const auto protocol : net::kAllProtocols) {
      std::size_t responsive = 0;
      for (const auto mask : expected) {
        responsive += net::responds_to(mask, protocol);
      }
      CHECK_EQ(frame.responsive_count(protocol), responsive);
    }
    CHECK_EQ(sim.probes_sent(), reference_sim.probes_sent());
  }
}

void run_schedule_scenarios() {
  netsim::UniverseParams params;
  params.seed = 5;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);
  const int day = 9;
  const auto targets = probe_targets(universe, day);

  // Budget: worst-case admission probes exactly the affordable prefix.
  {
    netsim::NetworkSim sim(universe);
    scan::ScanEngine engine(sim);
    scan::ProbeSchedule schedule;
    schedule.daily_probe_budget = 40 * schedule.probes_per_target() + 3;
    scan::ScanFrame frame;
    engine.scan_addresses(targets, day, schedule, &frame);
    CHECK_EQ(frame.rows().size(), 40u);
    CHECK_EQ(frame.row_count(), targets.size());
    CHECK(sim.probes_sent() <= schedule.daily_probe_budget);
    CHECK_EQ(schedule.admitted_targets(10), 10u);
    scan::ProbeSchedule unlimited;
    CHECK_EQ(unlimited.admitted_targets(123), 123u);
  }

  // Retries can only add responders. The same frame is refilled across
  // both scans (the reuse the day loop depends on).
  {
    netsim::NetworkSim sim(universe);
    scan::ScanEngine engine(sim);
    scan::ProbeSchedule plain;
    scan::ScanFrame frame;
    auto masks_of = [&](const scan::ProbeSchedule& schedule) {
      engine.scan_addresses(targets, day, schedule, &frame);
      return std::vector<net::ProtocolMask>(frame.masks(),
                                            frame.masks() + frame.row_count());
    };
    const auto base = masks_of(plain);
    const std::uint64_t base_probes = sim.probes_sent();
    scan::ProbeSchedule retrying;
    retrying.retries = 2;
    const auto retried = masks_of(retrying);
    const std::uint64_t retried_probes = sim.probes_sent() - base_probes;
    std::size_t lost = 0;
    std::size_t gained = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      lost += (base[i] & ~retried[i]) != 0;
      gained += retried[i] != base[i];
    }
    CHECK_EQ(lost, 0u);
    CHECK(gained > 0);  // some loss must re-roll into an answer
    // Retry oracle: a row's bit is set iff NetworkSim::probe answers
    // at some seq in 0..retries, and each miss gets attempts 1, 2, ...
    // until it answers.
    netsim::NetworkSim reference(universe);
    std::size_t oracle_diff = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      net::ProtocolMask expected = 0;
      for (const auto protocol : net::kAllProtocols) {
        for (unsigned seq = 0; seq <= retrying.retries; ++seq) {
          if (reference.probe(targets[i], protocol, day, seq).responded) {
            expected |= net::mask_of(protocol);
            break;
          }
        }
      }
      oracle_diff += retried[i] != expected;
    }
    CHECK_EQ(oracle_diff, 0u);
    CHECK_EQ(retried_probes, reference.probes_sent());
  }

  // Protocol names round-trip; unknown names are rejected.
  for (const auto protocol : net::kAllProtocols) {
    const auto parsed =
        scan::protocol_from_name(scan::protocol_flag_name(protocol));
    CHECK(parsed.has_value() && *parsed == protocol);
  }
  CHECK(!scan::protocol_from_name("tpc80").has_value());
  CHECK(!scan::protocol_from_name("").has_value());
  CHECK_EQ(scan::protocols_to_string({net::Protocol::kIcmp,
                                      net::Protocol::kUdp443}),
           std::string("icmp,udp443"));
}

void run_tests(const std::vector<unsigned>& thread_counts) {
  run_probe_equivalence();
  run_scan_equivalence(thread_counts);
  run_schedule_scenarios();
}

}  // namespace

int main(int argc, char** argv) {
  run_tests(v6h::test::thread_counts_from_cli(argc, argv, {1, 4}));
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

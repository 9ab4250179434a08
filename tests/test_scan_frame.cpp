// The zero-allocation scan-result contract: a warm ScanEngine
// refilling a warm ScanFrame over a warm TargetStore must perform zero
// heap allocations in the scan path — scan_store, including the frame
// reset, the admission sweep over the aliased column, the probe
// sweep, and the completion pass. Enforced with a global counting
// allocator. Also covers ScanFrame semantics: reuse across days,
// admission against a flag array, and tallies vs a brute-force
// recount, also after a pipeline day.

#include <vector>

#include "hitlist/pipeline.h"
#include "hitlist/target_store.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "test_main.h"
#include "util/counting_allocator.h"
#include "util/rng.h"

using namespace v6h;

namespace {

std::uint64_t allocations() { return util::allocation_count(); }

// Build a store over the universe's discoverable addresses, a slice
// of every zone, with a sprinkling of aliased verdicts.
hitlist::TargetStore build_store(const netsim::Universe& universe) {
  hitlist::TargetStore store;
  util::Rng rng(31);
  for (const auto& zone : universe.zones()) {
    const auto pool = zone.discoverable_count();
    for (std::uint32_t k = 0; k < pool && k < 40; ++k) {
      store.insert(zone.discoverable_address(k, /*day=*/0));
    }
  }
  for (std::size_t row = 0; row < store.size(); ++row) {
    if (rng.uniform_real() < 0.1) store.add_cover(row, 1);
  }
  return store;
}

void run_zero_allocation_scan() {
  netsim::UniverseParams params;
  params.seed = 3;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);

  hitlist::TargetStore store = build_store(universe);
  CHECK(store.size() > 500);

  // Warm-up day: capacities fill, the resolution table extends.
  scan::ScanEngine engine(sim);  // serial: the contract is per-thread
  scan::ScanFrame frame;
  scan::ProbeSchedule schedule;
  const int day0 = 100;
  engine.sync(store, day0);
  engine.scan_store(store, day0, schedule, &frame);
  CHECK(frame.responsive_any_count() > 0);

  // Steady state: same store, next days — sync finds nothing to
  // extend, the frame refills in place. Zero heap allocations.
  for (const int day : {day0, day0 + 1, day0 + 2}) {
    const std::uint64_t before = allocations();
    engine.sync(store, day);
    engine.scan_store(store, day, schedule, &frame);
    const std::uint64_t after = allocations();
    CHECK_EQ(after - before, 0u);
    CHECK_EQ(frame.day(), day);
  }

  // Flip days in both directions: the admission sweep re-reads the
  // flags, and a scan list that stays within its high-water mark (the
  // warm-up day's, since about 90% of the toggled rows were clean)
  // refills allocation-free.
  for (std::size_t row = 0; row < store.size(); row += 97) {
    store.add_cover(row, store.aliased(row) ? -1 : 1);
  }
  for (std::size_t row = 0; row < store.size(); row += 113) {
    store.add_cover(row, 1);  // shrink-only batch
  }
  {
    const std::uint64_t before = allocations();
    engine.sync(store, day0 + 3);
    engine.scan_store(store, day0 + 3, schedule, &frame);
    CHECK_EQ(allocations() - before, 0u);
  }

  // Consistency after all the reuse: tallies equal a brute recount.
  std::size_t any = 0;
  for (const auto row : frame.rows()) {
    any += frame.mask_of_row(row) != 0;
    CHECK(!store.aliased(row));
  }
  CHECK_EQ(frame.responsive_any_count(), any);
}

void run_frame_semantics() {
  // Frame reuse across shrinking/growing fills keeps columns and
  // tallies exact (no stale bytes leak between fills).
  scan::ScanFrame frame;
  std::vector<ipv6::Address> addrs;
  for (int i = 0; i < 8; ++i) {
    addrs.push_back(ipv6::Address::from_u64(0x2001, i));
  }
  frame.reset(5, addrs.data(), addrs.size());
  frame.admit_iota(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    frame.mutable_masks()[i] = static_cast<net::ProtocolMask>(i & 0x1f);
  }
  frame.finish();
  CHECK_EQ(frame.day(), 5);
  CHECK_EQ(frame.rows().size(), addrs.size());
  CHECK_EQ(frame.responsive_any_count(), 7u);  // masks 1..7 nonzero
  CHECK_EQ(frame.responsive_count(net::Protocol::kIcmp), 4u);  // odd masks

  // Refill smaller, admitting the clean rows of a flag array: old
  // tallies and masks must vanish. A limit stops the sweep early.
  const char aliased[] = {1, 0, 1, 0};
  frame.reset(6, addrs.data(), 4);
  frame.admit_unaliased(aliased, 1);
  CHECK(frame.rows() == std::vector<std::uint32_t>{1});
  frame.admit_unaliased(aliased, 4);
  frame.mutable_masks()[3] = net::mask_of(net::Protocol::kUdp53);
  frame.finish();
  CHECK_EQ(frame.row_count(), 4u);
  CHECK_EQ(frame.rows().size(), 2u);
  CHECK_EQ(frame.mask_of_row(1), 0u);
  CHECK_EQ(frame.responsive_any_count(), 1u);
  CHECK_EQ(frame.responsive_count(net::Protocol::kUdp53), 1u);
  CHECK_EQ(frame.responsive_count(net::Protocol::kIcmp), 0u);
  CHECK_EQ(frame.day(), 6);
  CHECK(frame.address_of_row(frame.rows()[1]) == addrs[3]);
  CHECK_EQ(frame.mask_of_row(frame.rows()[1]),
           net::mask_of(net::Protocol::kUdp53));
}

void run_pipeline_frame() {
  // The report borrows the pipeline's own frame, and its tally equals
  // a recount of the rows it scanned.
  netsim::UniverseParams params;
  params.seed = 2;
  params.scale = 0.05;
  params.tail_as_count = 150;
  const netsim::Universe universe(params);
  netsim::NetworkSim sim(universe);
  hitlist::Pipeline pipeline(universe, sim);
  const auto report = pipeline.run_day(200);
  CHECK_EQ(report.frame, &pipeline.frame());
  const scan::ScanFrame& frame = report.scan();
  std::size_t any = 0;
  for (const auto row : frame.rows()) any += frame.mask_of_row(row) != 0;
  CHECK_EQ(any, frame.responsive_any_count());
}

void run_tests() {
  run_frame_semantics();
  run_zero_allocation_scan();
  run_pipeline_frame();
}

}  // namespace

TEST_MAIN()

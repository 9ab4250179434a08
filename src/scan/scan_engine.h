#pragma once

// The resolved-target scan engine: the daily full-hitlist scan,
// rebuilt on top of cached probe routing.
//
// A ScanEngine owns a ResolvedTargetTable aligned with the pipeline's
// TargetStore rows. Each day it extends the table by the day's new
// rows (sync), refreshes rotation epochs, and then answers the
// protocol scan one protocol at a time through
// NetworkSim::probe_resolved_mask — no per-probe universe lookups.
// Results land in a caller-owned reusable ScanFrame (zero
// steady-state allocations; see scan/scan_frame.h). A ProbeSchedule
// picks protocols, probe budget, and retry policy. A scanned row's protocol bit is set iff
// NetworkSim::probe answers at some attempt seq 0..retries, for any
// thread count (tests/test_scan_equivalence.cpp checks every day of a
// campaign under default and budgeted retrying schedules,
// tests/test_scan_engine.cpp ad-hoc lists).

#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "hitlist/target_store.h"
#include "ipv6/address.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "scan/probe_schedule.h"
#include "scan/resolved_table.h"
#include "scan/scan_frame.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::scan {

class ScanEngine {
 public:
  explicit ScanEngine(netsim::NetworkSim& sim, engine::Engine* engine = nullptr)
      : sim_(&sim), engine_(engine), table_(sim) {}

  /// Attach (or detach with nullptr) the observability layer: sync,
  /// the probe sweep, and the frame completion pass each get a stage
  /// span ("scan_sync" / "scan_probe" / "frame_finish"). Borrowed;
  /// never affects scan output.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Pre-size the resolution table for a store that will never exceed
  /// `max_rows` rows (day-loop zero-alloc contract).
  void reserve(std::size_t max_rows) { table_.reserve(max_rows); }

  /// Bring the resolution table up to date with `store`: re-resolve
  /// rotation-epoch crossings among existing rows, then resolve and
  /// append the rows added since the last sync (the DayDelta suffix).
  void sync(const hitlist::TargetStore& store, int day);

  /// The daily protocol scan: probe the non-aliased rows of `store`
  /// (swept from its aliased-count column, as many as the schedule's
  /// budget admits) under `schedule`, filling `frame` in place —
  /// clear()+refill with capacity retained, so a steady-state day
  /// allocates nothing. Requires sync(store, day) first.
  void scan_store(const hitlist::TargetStore& store, int day,
                  const ProbeSchedule& schedule, ScanFrame* frame);

  /// Scan an ad-hoc address list through a transient resolution (each
  /// target resolved once, probed protocols.size() x attempts times).
  /// Frame rows are input-list positions.
  void scan_addresses(const std::vector<ipv6::Address>& targets, int day,
                      const ProbeSchedule& schedule, ScanFrame* frame);

  const ResolvedTargetTable& table() const { return table_; }

 private:
  netsim::NetworkSim* sim_;
  engine::Engine* engine_;
  obs::Observability* obs_ = nullptr;
  ResolvedTargetTable table_;
};

}  // namespace v6h::scan

#pragma once

// The daily hitlist pipeline of the paper: collect from all sources,
// run APD over the candidate prefixes, then scan the de-aliased
// targets across the protocol set.
//
// The day loop is delta-driven: each run_day folds only the day's new
// addresses into the detector's per-prefix counts (a prefix that
// reaches min_targets is appended to the candidates, whose verdict
// columns the APD day updates in its probe chunks), gives each new row
// its count of covering aliased prefixes, and moves the older members
// of each flipped prefix by one (none on a first day, when every row
// is new).
//
// The daily protocol scan runs on the resolved scan engine: a
// persistent per-row resolution cache extended by each DayDelta
// answers every probe without universe lookups.
// tests/day_oracle.h checks every day's state against brute-force
// oracles: the full candidate recount, a linear count of the
// detector's aliased prefixes over every row, and NetworkSim::probe.
//
// Scan results land in one pipeline-owned scan::ScanFrame reused
// across days (zero steady-state allocations in the scan path);
// DayReport borrows it. Each day result is read in one place after
// run_day returns: the scan rows in the frame, the raw APD verdicts
// in detector().outcome(i), the verdict transitions in last_delta()
// (each list ascending), the aliased set in detector()
// (current_aliased(), aliased_count(); aliased_cover(address) per
// address), and each row's aliased count in store().

#include <cstdint>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/target_store.h"
#include "ipv6/address.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "sources/sources.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::hitlist {

struct PipelineOptions {
  /// The daily scan schedule: protocol set, budget, and retry
  /// policy. The default schedule reproduces the historical
  /// all-protocol scan byte-for-byte.
  scan::ProbeSchedule schedule;
  apd::ApdOptions apd;
  /// Observability layer (borrowed; may be null = disabled, the
  /// default). When set, run_day wraps every stage in an obs::StageSpan,
  /// feeds the core day-loop counters/gauges, and closes each day with
  /// Observability::end_day (registry shard merge + DayTelemetry to the
  /// attached sink). The DayReport stream is byte-identical either way
  /// (tests/test_obs.cpp); the object must outlive the pipeline.
  obs::Observability* obs = nullptr;
};

class Pipeline {
 public:
  /// With an engine, the collect draws, APD fan-out, new rows'
  /// aliased counts, and protocol scans of each day run on its
  /// workers; a null engine (or --threads 1) is the serial path.
  /// Output is byte-identical either way
  /// (tests/test_engine_equivalence.cpp).
  Pipeline(const netsim::Universe& universe, netsim::NetworkSim& sim,
           PipelineOptions options = {}, engine::Engine* engine = nullptr);

  struct DayReport {
    int day = -1;
    std::size_t new_addresses = 0;
    std::size_t aliased_prefixes = 0;
    std::size_t scanned_targets = 0;
    /// The day's scan results, borrowed from the pipeline's reusable
    /// frame: valid until the next run_day overwrites it.
    const scan::ScanFrame* frame = nullptr;

    const scan::ScanFrame& scan() const { return *frame; }
  };

  /// One daily cycle at `day`: collect -> APD -> scan.
  DayReport run_day(int day);

  /// Cumulative hitlist (pre-APD, deduplicated, insertion order).
  const std::vector<ipv6::Address>& targets() const {
    return store_.addresses();
  }

  /// Columnar per-target state (each row's aliased count).
  const TargetStore& store() const { return store_; }

  /// What the most recent run_day changed.
  const DayDelta& last_delta() const { return delta_; }

  const apd::AliasDetector& detector() const { return detector_; }

  /// The reusable scan frame run_day refills (what DayReport borrows).
  const scan::ScanFrame& frame() const { return frame_; }

  sources::SourceSimulator& source_simulator() { return sources_; }

  /// The resolved scan engine run_day keeps in sync with the store.
  const scan::ScanEngine& scan_engine() const { return scan_engine_; }

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  engine::Engine* engine_;
  netsim::NetworkSim* sim_;          // for the probe-count telemetry
  obs::Observability* obs_;          // borrowed; null = disabled
  sources::SourceSimulator sources_;
  apd::AliasDetector detector_;
  scan::ScanEngine scan_engine_;
  TargetStore store_;
  DayDelta delta_;
  scan::ScanFrame frame_;
  // The member rows of one flipped prefix, coordinator-owned and
  // refilled for each flipped prefix.
  std::vector<std::uint32_t> members_;
};

}  // namespace v6h::hitlist

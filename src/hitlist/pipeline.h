#pragma once

// The daily hitlist pipeline of the paper: collect from all sources,
// run APD over the candidate prefixes, then scan the de-aliased
// targets across the protocol set.
//
// The day loop is delta-driven: each run_day folds only the day's new
// addresses into the detector's per-prefix counts, applies the APD
// verdict transitions to a persistent alias filter in place, and
// re-filters only the new rows plus the members of flipped prefixes.
//
// The daily protocol scan runs on the resolved scan engine: a
// persistent per-row resolution cache extended by each DayDelta
// answers every probe without universe lookups.
// tests/day_oracle.h checks every day's state against brute-force
// oracles: the full candidate recount, a linear alias match over the
// detector's verdicts, and NetworkSim::probe.
//
// Scan results land in one pipeline-owned scan::ScanFrame reused
// across days (zero steady-state allocations in the scan path);
// DayReport borrows it. Each day result is read in one place after
// run_day returns: the scan rows in the frame, the raw APD verdicts
// in detector().outcomes(), the verdict transitions in
// last_delta(), and the aliased set in filter().

#include <cstdint>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/target_store.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
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

/// The APD verdict set as a queryable filter: one longest-prefix-match
/// trie over the aliased prefixes, which is also the only copy of the
/// set. Mutable in place: the pipeline applies each day's verdict
/// transitions as insert/remove instead of rebuilding the trie.
///
/// Thread discipline: insert/remove run only on the coordinator
/// thread between parallel phases; during is_aliased_many the trie is
/// read-only, so the only shared write is the caller-provided output
/// column, which is index-addressed and disjoint per chunk.
class AliasFilter {
 public:
  AliasFilter() = default;

  /// Pre-size the trie so day-loop inserts never grow a container:
  /// `max_prefixes` bounds the aliased set, `max_trie_nodes` the
  /// trie's node arena (path compression is absent, so budget ~ the
  /// deepest prefix length for the first insert in a region plus a
  /// short marginal tail for each further prefix; the
  /// counting-allocator test fails loudly if a campaign outgrows the
  /// budget).
  void reserve(std::size_t max_prefixes, std::size_t max_trie_nodes);

  /// Add `prefix` to the aliased set (no-op when present).
  void insert(const ipv6::Prefix& prefix) { trie_.insert(prefix, true); }

  /// Drop `prefix` from the aliased set (no-op when absent).
  void remove(const ipv6::Prefix& prefix) { trie_.erase(prefix); }

  /// How many prefixes the aliased set holds.
  std::size_t size() const { return trie_.size(); }

  /// Whether `prefix` itself is in the aliased set (exact match, not
  /// containment).
  bool contains(const ipv6::Prefix& prefix) const {
    return trie_.exact_match(prefix) != nullptr;
  }

  bool is_aliased(const ipv6::Address& a) const {
    // An empty filter answers without walking the trie.
    return !trie_.empty() && trie_.longest_match(a) != nullptr;
  }

  /// Batched filter: (*aliased)[i] = is_aliased(in[i]), in index
  /// chunks across the engine workers when one is given. Output order
  /// is the input order for any thread count.
  void is_aliased_many(const ipv6::Address* in, std::size_t count,
                       std::vector<char>* aliased,
                       engine::Engine* engine = nullptr) const;

 private:
  ipv6::PrefixTrie<bool> trie_;
};

class Pipeline {
 public:
  /// With an engine, the collect draws, APD fan-out, alias filtering,
  /// and protocol scans of each day run on its workers; a null engine
  /// (or --threads 1) is the serial path. Output is byte-identical
  /// either way (tests/test_engine_equivalence.cpp).
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

  /// Columnar per-target state (first-seen day, aliased flag).
  const TargetStore& store() const { return store_; }

  /// What the most recent run_day changed.
  const DayDelta& last_delta() const { return delta_; }

  /// The persistent alias filter, kept current by run_day.
  const AliasFilter& filter() const { return filter_; }

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
  AliasFilter filter_;
  DayDelta delta_;
  scan::ScanFrame frame_;
  // Re-filter buffers, coordinator-owned and refilled once per
  // run_day: the verdict column for the day's new rows, the day's
  // flipped prefixes (both transition lists), and the rows inside
  // them.
  std::vector<char> new_row_aliased_;
  std::vector<ipv6::Prefix> flipped_;
  std::vector<std::uint32_t> affected_rows_;
};

}  // namespace v6h::hitlist

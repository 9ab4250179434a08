#pragma once

// Columnar cache of per-address universe resolution: one row per
// target, SoA arrays for exactly the fields the scan's responded bit
// reads (zone ref, inverted slot, resolution flags, service mask,
// resolution epoch: 14 bytes per row, plus an 8-byte address hash per
// aliased row in a side table). Rows are append-only and aligned
// with hitlist::TargetStore rows, so each DayDelta extends the table
// by exactly the day's new suffix; zones with rotating addresses
// (privacy IIDs) record their resolution epoch and are lazily
// re-resolved when a scan day crosses an epoch boundary.

#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "netsim/network_sim.h"

namespace v6h::scan {

// Thread discipline: the table is phase-disciplined, not locked. The
// coordinator thread alone calls extend()/refresh(); inside those, an
// attached engine fans the pure per-row resolution out to workers
// that write disjoint, index-addressed rows, and the pool's run()
// barrier is the release point. Between mutations any number of
// threads may read columns() concurrently. Clang's capability
// analysis has nothing to check here — there is no mutex — so the
// contract is enforced by the TSan matrix job instead.
class ResolvedTargetTable {
 public:
  explicit ResolvedTargetTable(const netsim::NetworkSim& sim)
      : sim_(&sim), universe_(&sim.universe()) {}

  std::size_t size() const { return zone_.size(); }

  /// Pre-size every column for a table that will never exceed
  /// `max_rows` rows, so daily extend() calls never reallocate
  /// (day-loop zero-alloc contract).
  void reserve(std::size_t max_rows);

  /// Resolve `count` new addresses at `day`'s epoch and append their
  /// rows. Resolution is a pure per-row function, so with an engine
  /// the fill fans out across workers with index-addressed writes —
  /// the table bytes are identical for any thread count.
  void extend(const ipv6::Address* addrs, std::size_t count, int day,
              engine::Engine* engine = nullptr);

  /// Re-resolve the rows whose zone rotated into a new epoch since
  /// they were last resolved. `addrs` is the full row-aligned address
  /// array (rows before `size()` are read). Cheap on most days: only
  /// rotating-zone rows are checked, and only epoch crossings re-run
  /// the slot inversion.
  void refresh(const ipv6::Address* addrs, int day,
               engine::Engine* engine = nullptr);

  /// SoA view for NetworkSim::probe_resolved_mask, the scan hot path.
  /// Invalidated by extend() (reallocation), not by refresh().
  netsim::ResolvedColumns columns() const {
    netsim::ResolvedColumns t;
    t.zone = zone_.data();
    t.slot = slot_.data();
    t.alias_hash = alias_hash_.data();
    t.flags = flags_.data();
    t.service_mask = service_mask_.data();
    return t;
  }

  std::size_t rotating_rows() const { return rotating_rows_.size(); }

 private:
  void store_row(std::size_t row, const netsim::ResolvedTarget& r);

  const netsim::NetworkSim* sim_;
  const netsim::Universe* universe_;
  std::vector<std::uint32_t> zone_;
  // For honest rows: the inverted host slot. For aliased rows (which
  // have no slot) the same column indexes the alias_hash_ side table
  // — the per-address hash only aliased-space probing reads, moved
  // out of the dense per-row layout so honest rows (the bulk of the
  // hitlist) stop paying 8 bytes each for it.
  std::vector<std::uint32_t> slot_;
  std::vector<std::uint64_t> alias_hash_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint8_t> service_mask_;
  std::vector<std::int32_t> epoch_;  // resolution epoch per row
  // Rows living in zones with lifetime_days > 0; the only rows whose
  // cached resolution can go stale.
  std::vector<std::uint32_t> rotating_rows_;
  // Reusable per-extend scratch for the new rows' address hashes (the
  // parallel fill writes them here; the serial bookkeeping pass moves
  // the aliased ones into alias_hash_).
  std::vector<std::uint64_t> extend_hash_scratch_;
};

}  // namespace v6h::scan

#include "scan/resolved_table.h"

namespace v6h::scan {

using ipv6::Address;
using netsim::ResolvedTarget;

void ResolvedTargetTable::store_row(std::size_t row, const ResolvedTarget& r) {
  zone_[row] = r.zone;
  slot_[row] = r.slot;
  flags_[row] = r.flags;
  service_mask_[row] = r.service_mask;
  epoch_[row] = r.epoch;
}

void ResolvedTargetTable::reserve(std::size_t max_rows) {
  zone_.reserve(max_rows);
  slot_.reserve(max_rows);
  flags_.reserve(max_rows);
  service_mask_.reserve(max_rows);
  epoch_.reserve(max_rows);
  alias_hash_.reserve(max_rows);
  rotating_rows_.reserve(max_rows);
  extend_hash_scratch_.reserve(max_rows);
}

void ResolvedTargetTable::extend(const Address* addrs, std::size_t count,
                                 int day, engine::Engine* engine) {
  if (count == 0) return;
  const std::size_t base = size();
  const std::size_t total = base + count;
  zone_.resize(total);
  slot_.resize(total);
  flags_.resize(total);
  service_mask_.resize(total);
  epoch_.resize(total);
  extend_hash_scratch_.resize(count);

  // Worker discipline (see the class comment in resolved_table.h):
  // resolve() is a pure function of (address, day), each worker
  // stores disjoint rows [base + begin, base + end), and the
  // parallel_for return barrier publishes the columns before the
  // serial bookkeeping below reads them.
  auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const ResolvedTarget r = sim_->resolve(addrs[i], day);
      store_row(base + i, r);
      extend_hash_scratch_[i] = r.addr_hash;
    }
  };
  engine::parallel_for(engine, count, 256, fill);

  // Serial bookkeeping, in row order. Aliased rows park their address
  // hash in the side table (the slot column, unused for them, becomes
  // the side-table index); they never rotate, so the rotation list
  // only ever collects honest rows, and an unrouted row has no zone
  // at all.
  const auto& zones = universe_->zones();
  for (std::size_t i = base; i < total; ++i) {
    if (flags_[i] & ResolvedTarget::kAliased) {
      slot_[i] = static_cast<std::uint32_t>(alias_hash_.size());
      alias_hash_.push_back(extend_hash_scratch_[i - base]);
      continue;
    }
    if (zone_[i] == ResolvedTarget::kNoZone) continue;
    if (zones[zone_[i]].config().lifetime_days > 0) {
      rotating_rows_.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

void ResolvedTargetTable::refresh(const Address* addrs, int day,
                                  engine::Engine* engine) {
  if (rotating_rows_.empty()) return;
  const auto& zones = universe_->zones();
  auto refresh_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t row = rotating_rows_[k];
      if (zones[zone_[row]].epoch(day) == epoch_[row]) continue;
      // Rotating rows are honest by construction, so the re-resolve
      // can never need an alias_hash_ append (which would race).
      store_row(row, sim_->resolve(addrs[row], day));
    }
  };
  engine::parallel_for(engine, rotating_rows_.size(), 512, refresh_rows);
}

}  // namespace v6h::scan

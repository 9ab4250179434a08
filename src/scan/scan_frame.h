#pragma once

// Zero-allocation scan results: the daily protocol scan fills a
// reusable columnar ScanFrame in place instead of materializing a
// fresh per-target report each day.
//
// A frame holds one per-row ProtocolMask column aligned with the
// producer's row space (hitlist::TargetStore rows for the daily scan,
// input-list positions for ad-hoc scans), the admitted-row index the
// schedule actually probed (the daily scan sweeps it from the store's
// aliased-count column, so it is the only scan list), and O(1)
// response tallies computed in one serial pass at scan end.
// clear()+refill retains capacity, so a steady-state day performs
// zero heap allocations in the scan path (tests/test_scan_frame.cpp
// enforces this with a counting allocator). Consumers read the
// admitted rows and their masks in place once the scan call returns.

#include <array>
#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "net/protocol.h"

namespace v6h::scan {

class ScanFrame {
 public:
  // ---- consumer surface -------------------------------------------
  int day() const { return day_; }

  /// Length of the mask column (the producer's row space).
  std::size_t row_count() const { return masks_.size(); }

  /// The admitted rows the schedule probed, ascending.
  const std::vector<std::uint32_t>& rows() const { return rows_; }

  net::ProtocolMask mask_of_row(std::size_t row) const { return masks_[row]; }
  const net::ProtocolMask* masks() const { return masks_.data(); }

  /// Row-aligned address lookup, borrowed from the producer's address
  /// array: valid as long as that array (the TargetStore / the scanned
  /// list) outlives the frame's current fill.
  const ipv6::Address& address_of_row(std::size_t row) const {
    return addrs_[row];
  }

  std::size_t responsive_count(net::Protocol p) const {
    return static_cast<std::size_t>(responsive_[net::index_of(p)]);
  }
  std::size_t responsive_any_count() const {
    return static_cast<std::size_t>(responsive_any_);
  }

  // ---- producer surface (ScanEngine) ------------------------------
  /// Pre-size both columns for `max_rows` rows. Without it, a frame
  /// over a still-growing row space re-reaches capacity on every
  /// growth day (assign/resize grow exactly to the requested size);
  /// the day loop reserves the campaign bound up front instead
  /// (zero-alloc contract).
  void reserve(std::size_t max_rows) {
    masks_.reserve(max_rows);
    rows_.reserve(max_rows);
  }

  /// Start a new fill: zero `row_count` masks, drop the admitted rows
  /// and tallies, borrow `addrs` for row-aligned address lookup.
  /// Capacity is retained, so refilling at steady state allocates
  /// nothing.
  void reset(int day, const ipv6::Address* addrs, std::size_t row_count);

  /// Admit the first `limit` rows whose `aliased` byte is zero, in
  /// row order: the sweep reads one byte per row of row_count() and
  /// stops once `limit` rows are admitted.
  void admit_unaliased(const char* aliased, std::size_t limit);

  /// Admit rows 0..count-1 (ad-hoc list scans).
  void admit_iota(std::size_t count);

  /// The mutable mask column the probe sweep scatters into. Shared
  /// with engine workers without a lock: each probe ORs into its own
  /// row, admitted rows are unique, so concurrent writes are disjoint
  /// by construction, and the pool barrier orders them before the
  /// serial finish() pass reads the column.
  net::ProtocolMask* mutable_masks() { return masks_.data(); }

  /// Serial completion pass: compute the tallies from the admitted
  /// rows.
  void finish();

 private:
  int day_ = -1;
  const ipv6::Address* addrs_ = nullptr;
  std::vector<net::ProtocolMask> masks_;
  std::vector<std::uint32_t> rows_;
  std::array<std::uint64_t, net::kProtocolCount> responsive_{};
  std::uint64_t responsive_any_ = 0;
};

}  // namespace v6h::scan

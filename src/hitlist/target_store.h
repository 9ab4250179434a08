#pragma once

// Columnar (struct-of-arrays) backing store for the cumulative
// hitlist — the shared substrate of the delta-driven day loop. One
// row per unique address, in first-seen order; the column the day
// stages need (each row's aliased count) lives in its own dense array
// so a stage touches only the bytes it reads.
//
// First-seen dedup runs on a flat hash set; the "all targets inside
// this prefix" range queries run on sorted-run blocks: appended rows
// collect in a small tail, spill into a sorted run, and runs merge
// geometrically (logarithmic-method) so each stays a dense sorted
// array a range query can binary-search — contiguous scans instead of
// the pointer-chasing of the old std::map index.
//
// All runs live back-to-back in ONE arena (run_storage_) addressed by
// (offset, length) spans: runs form a stack, and the logarithmic
// method only ever merges the two most recent — i.e. adjacent — runs,
// so a merge writes through a reused scratch buffer and copies back
// in place. With reserve() sized to the campaign bound, inserts and
// spill-day merges are allocation-free (day-loop zero-alloc
// contract); without it the arena grows geometrically like any
// vector, so standalone use keeps working.

#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "util/flat_hash.h"

namespace v6h::hitlist {

/// What one run_day changed, instead of re-deriving the world: the
/// appended row range plus the alias-verdict transitions. New rows
/// are always a suffix of the store (rows are append-only), so the
/// delta is two integers and the flip lists.
struct DayDelta {
  int day = -1;
  std::uint32_t first_new_row = 0;  // new rows are [first_new_row, row_count)
  std::uint32_t row_count = 0;      // store size after the day
  std::vector<ipv6::Prefix> became_aliased;
  std::vector<ipv6::Prefix> became_clean;

  std::size_t new_addresses() const { return row_count - first_new_row; }

  void clear() {
    day = -1;
    first_new_row = 0;
    row_count = 0;
    became_aliased.clear();
    became_clean.clear();
  }
};

class TargetStore {
 public:
  /// Pre-size every column, the hash index, and the run arena for a
  /// store that will never exceed `max_rows` rows, so inserts and
  /// run merges never allocate afterwards.
  void reserve(std::size_t max_rows);

  /// First-seen dedup: appends a row (aliased count 0) when `a` is
  /// new and returns true; a duplicate leaves the store untouched.
  bool insert(const ipv6::Address& a);

  std::size_t size() const { return addresses_.size(); }
  const std::vector<ipv6::Address>& addresses() const { return addresses_; }
  const ipv6::Address& address(std::size_t row) const { return addresses_[row]; }
  bool aliased(std::size_t row) const { return aliased_[row] != 0; }

  /// The aliased column, one byte per row: how many currently aliased
  /// prefixes contain the row (in the pipeline 0 to 5: up to four
  /// level prefixes and one announcement), so nonzero = inside
  /// detected aliased space. The day's scan list is swept from it
  /// (scan::ScanFrame::admit_unaliased).
  const std::vector<char>& aliased() const { return aliased_; }

  /// Move `row`'s aliased count by `delta`. It writes that row's byte
  /// only, so engine workers may call it on disjoint rows between
  /// coordinator mutations; the pool barrier publishes the writes.
  void add_cover(std::size_t row, int delta) {
    aliased_[row] = static_cast<char>(aliased_[row] + delta);
  }

  /// Append the rows whose address lies inside `prefix`, each once, in
  /// no particular order: a binary search per sorted run plus a
  /// bounded tail scan, so the cost is O(log n + members).
  void rows_within(const ipv6::Prefix& prefix,
                   std::vector<std::uint32_t>* rows) const;

  /// Append the rows inside any of `prefixes`, in ascending row order
  /// without duplicates (nested prefixes would otherwise emit their
  /// overlap once per prefix).
  void rows_within_many(const std::vector<ipv6::Prefix>& prefixes,
                        std::vector<std::uint32_t>* rows) const;

  std::size_t sorted_run_count() const { return spans_.size(); }

 private:
  struct Entry {
    ipv6::Address address;
    std::uint32_t row;
  };

  // One sorted run inside run_storage_: entries
  // [offset, offset + length), ascending by address. Spans are
  // stacked in arena order, so spans_[i+1].offset ==
  // spans_[i].offset + spans_[i].length and the last span ends at
  // run_storage_.size().
  struct RunSpan {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  std::vector<ipv6::Address> addresses_;
  std::vector<char> aliased_;
  util::FlatSet<ipv6::Address, ipv6::AddressHash> index_;
  // Ordered index: geometric sorted runs in one arena + an unsorted
  // recent tail. merge_scratch_ is the reused merge buffer (adjacent
  // runs merge through it and copy back in place).
  std::vector<Entry> run_storage_;
  std::vector<RunSpan> spans_;
  std::vector<Entry> tail_;
  std::vector<Entry> merge_scratch_;
};

}  // namespace v6h::hitlist

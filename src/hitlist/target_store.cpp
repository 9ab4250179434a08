#include "hitlist/target_store.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace v6h::hitlist {

using ipv6::Address;
using ipv6::Prefix;

namespace {

// Tail appends before a spill into a sorted run: small enough that
// the per-query linear tail scan stays in-cache, large enough that
// run merges amortize.
constexpr std::size_t kTailLimit = 256;

// Highest address inside the prefix: host bits forced to one.
Address last_address(const Prefix& prefix) {
  Address last = prefix.address();
  const unsigned length = prefix.length();
  if (length < 64) {
    last.hi |= length == 0 ? ~0ULL : ~0ULL >> length;
    last.lo = ~0ULL;
  } else if (length < 128) {
    last.lo |= ~0ULL >> (length - 64);
  }
  return last;
}

}  // namespace

void TargetStore::reserve(std::size_t max_rows) {
  addresses_.reserve(max_rows);
  aliased_.reserve(max_rows);
  index_.reserve(max_rows);
  // Every row lives in exactly one run or the tail, so the arena and
  // the merge scratch are both bounded by the row count; the span
  // stack is logarithmic (geometric run sizes) — 64 is unreachable.
  run_storage_.reserve(max_rows);
  merge_scratch_.reserve(max_rows);
  tail_.reserve(kTailLimit);
  spans_.reserve(64);
}

bool TargetStore::insert(const Address& a) {
  if (!index_.insert(a)) return false;
  const auto row = static_cast<std::uint32_t>(addresses_.size());
  addresses_.push_back(a);
  aliased_.push_back(0);

  tail_.push_back(Entry{a, row});
  if (tail_.size() < kTailLimit) return true;
  // Spill the tail as a new sorted run at the arena's end, then keep
  // merging while the previous run is not substantially larger (the
  // logarithmic method): run sizes stay geometric, inserts cost
  // O(log n) amortized, and every run is one dense sorted block.
  const auto cmp = [](const Entry& x, const Entry& y) {
    return x.address < y.address;
  };
  std::sort(tail_.begin(), tail_.end(), cmp);
  spans_.push_back(RunSpan{static_cast<std::uint32_t>(run_storage_.size()),
                           static_cast<std::uint32_t>(tail_.size())});
  run_storage_.insert(run_storage_.end(), tail_.begin(), tail_.end());
  tail_.clear();
  while (spans_.size() >= 2 &&
         spans_[spans_.size() - 2].length < 2 * spans_.back().length) {
    // The two most recent runs are adjacent in the arena (spans are a
    // stack), so merge through the scratch and copy back in place —
    // the arena size is conserved and nothing allocates when warm.
    RunSpan& left = spans_[spans_.size() - 2];
    const RunSpan right = spans_.back();
    Entry* base = run_storage_.data();
    merge_scratch_.clear();
    std::merge(base + left.offset, base + left.offset + left.length,
               base + right.offset, base + right.offset + right.length,
               std::back_inserter(merge_scratch_), cmp);
    std::copy(merge_scratch_.begin(), merge_scratch_.end(),
              base + left.offset);
    left.length += right.length;
    spans_.pop_back();
  }
  return true;
}

void TargetStore::rows_within(const Prefix& prefix,
                              std::vector<std::uint32_t>* rows) const {
  const Address& first = prefix.address();
  const Address last = last_address(prefix);
  for (const auto& span : spans_) {
    const Entry* begin = run_storage_.data() + span.offset;
    const Entry* end = begin + span.length;
    const Entry* it = std::lower_bound(
        begin, end, first,
        [](const Entry& e, const Address& a) { return e.address < a; });
    for (; it != end && !(last < it->address); ++it) rows->push_back(it->row);
  }
  for (const auto& entry : tail_) {
    if (!(entry.address < first) && !(last < entry.address)) {
      rows->push_back(entry.row);
    }
  }
}

void TargetStore::rows_within_many(const std::vector<Prefix>& prefixes,
                                   std::vector<std::uint32_t>* rows) const {
  const std::ptrdiff_t begin = static_cast<std::ptrdiff_t>(rows->size());
  for (const auto& prefix : prefixes) rows_within(prefix, rows);
  std::sort(rows->begin() + begin, rows->end());
  rows->erase(std::unique(rows->begin() + begin, rows->end()), rows->end());
}

}  // namespace v6h::hitlist

#pragma once

// Top-bits sharding of the IPv6 space: work items are grouped by a
// slice of their address's routing bits so a worker chunk stays
// inside one region (shared trie paths, shared zones), and per-shard
// results merge back deterministically. The shard key is the
// kShardBits bits ending at the /kShardDepth boundary — the literal
// topmost bits of an IPv6 address carry almost no entropy (global
// unicast space is concentrated in 2001::/16 and friends, and this
// simulator keys every AS as 2001:xxxx::/32), while the bits just
// below the /28 boundary separate announced /32s and thus ASes. The
// shard count is a compile-time constant, independent of the thread
// count — shard membership can never change results; load balance
// across uneven shards comes from work-stealing over sub-shard
// chunks, not from the shard boundaries.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"

namespace v6h::engine {

inline constexpr unsigned kShardBits = 4;
inline constexpr unsigned kShardDepth = 32;  // shard key ends at the /32 edge
inline constexpr std::size_t kShardCount = std::size_t{1} << kShardBits;

inline std::size_t shard_of(const ipv6::Address& a) {
  return static_cast<std::size_t>(a.hi >> (64 - kShardDepth)) &
         (kShardCount - 1);
}

/// First shard a prefix overlaps (its base address's shard; prefix
/// host bits are already masked to zero).
inline std::size_t shard_first(const ipv6::Prefix& p) {
  return shard_of(p.address());
}

/// Last shard a prefix overlaps. A prefix of /kShardDepth or longer
/// pins every key bit (one shard); one of /(kShardDepth - kShardBits)
/// or shorter leaves them all free (every shard); in between it spans
/// an aligned power-of-two run, which never wraps because the prefix
/// base has its host bits masked to zero.
inline std::size_t shard_last(const ipv6::Prefix& p) {
  if (p.length() >= kShardDepth) return shard_first(p);
  if (p.length() <= kShardDepth - kShardBits) return kShardCount - 1;
  return shard_first(p) + (std::size_t{1} << (kShardDepth - p.length())) - 1;
}

/// Stable shard grouping plus the bucket boundaries:
/// order[bounds[s]..bounds[s+1]) are the indices of shard `s`
/// (counting sort, input order preserved within a shard). The
/// count-then-merge stages (candidate counting) hand each whole bucket
/// to one worker and then merge the per-shard results serially in
/// shard order, so the merge is schedule-independent.
struct ShardPartition {
  std::vector<std::uint32_t> order;
  std::array<std::uint32_t, kShardCount + 1> bounds{};
};

/// Partition items[0..count) into `out`. `out.order` is reused across
/// calls (capacity retained), so a warm partition allocates nothing. The shard key is computed twice per item — two
/// shift-and-mask passes beat materializing a per-item scratch vector.
template <typename Item, typename ShardOf>
void shard_partition_into(const Item* items, std::size_t count,
                          ShardOf&& shard_of_item, ShardPartition& out) {
  out.bounds.fill(0);
  for (std::size_t i = 0; i < count; ++i) {
    ++out.bounds[shard_of_item(items[i]) + 1];
  }
  for (std::size_t s = 1; s <= kShardCount; ++s) {
    out.bounds[s] += out.bounds[s - 1];
  }
  auto cursor = out.bounds;
  out.order.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.order[cursor[shard_of_item(items[i])]++] =
        static_cast<std::uint32_t>(i);
  }
}

}  // namespace v6h::engine

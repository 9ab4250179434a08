#pragma once

// Binary longest-prefix-match trie over IPv6 prefixes. Nodes live in
// a flat vector (index links), so tries copy cheaply with their owner
// (BGP table, zone table, alias filter).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"

namespace v6h::ipv6 {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

  /// Pre-size for `nodes` trie nodes and `values` live values so
  /// subsequent inserts never allocate (day-loop zero-alloc
  /// contract). The value store is a deque (pointer stability), which
  /// cannot reserve — so this pre-populates it with default values
  /// parked on the freelist; inserts then always pop a slot instead
  /// of pushing.
  void reserve(std::size_t nodes, std::size_t values) {
    nodes_.reserve(nodes);
    free_slots_.reserve(std::max(values, values_.size()));
    while (values_.size() < values) {
      free_slots_.push_back(static_cast<std::int32_t>(values_.size()));
      values_.push_back(T{});
    }
  }

  void insert(const Prefix& prefix, T value) {
    std::size_t node = 0;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const unsigned bit = prefix.address().bit(depth) ? 1 : 0;
      if (nodes_[node].child[bit] < 0) {
        nodes_[node].child[bit] = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = static_cast<std::size_t>(nodes_[node].child[bit]);
    }
    if (nodes_[node].value < 0) {
      if (free_slots_.empty()) grow_values();
      nodes_[node].value = free_slots_.back();
      free_slots_.pop_back();
      ++live_;
    }
    values_[static_cast<std::size_t>(nodes_[node].value)] = std::move(value);
  }

  /// Unlink `prefix`'s value; returns false when that exact prefix is
  /// not present. Interior nodes stay (lookups never see them), the
  /// value slot goes on a freelist for the next insert — the alias
  /// filter flips prefixes in and out daily, so erase must not leak.
  bool erase(const Prefix& prefix) {
    const Cursor at = descend(prefix);
    if (at.node < 0) return false;
    Node& node = nodes_[static_cast<std::size_t>(at.node)];
    if (node.value < 0) return false;
    values_[static_cast<std::size_t>(node.value)] = T{};
    free_slots_.push_back(node.value);
    node.value = -1;
    --live_;
    return true;
  }

  /// Where a walk stands after reading a prefix's bits: the node at
  /// `depth` (-1 when nothing below it can change the match) and the
  /// value of the longest match above it.
  struct Cursor {
    std::int32_t node = 0;
    std::int32_t best = -1;
    unsigned depth = 0;
  };

  /// Walk `prefix`'s bits once. longest_match_from(descend(p), a)
  /// equals longest_match(a) for every `a` inside p: both walks read
  /// the same bits above p.length(), so a batch of addresses sharing
  /// a prefix pays for that part of the path once. The node is -1
  /// only when the path leaves the trie above p.length(); erase and
  /// exact_match need the node at p.
  Cursor descend(const Prefix& prefix) const {
    Cursor at;
    for (; at.depth < prefix.length(); ++at.depth) {
      const Node& node = nodes_[static_cast<std::size_t>(at.node)];
      if (node.value >= 0) at.best = node.value;
      at.node = node.child[prefix.address().bit(at.depth) ? 1 : 0];
      if (at.node < 0) break;
    }
    return at;
  }

  /// descend(p) with a childless end node folded into `best`, so the
  /// node is -1 whenever no inserted prefix lies strictly inside p:
  /// every address inside p then has the same longest match, `best`.
  /// longest_match_from answers alike for either form. Until erase
  /// runs the converse holds too, since every node with children has
  /// a value below it; an erased value leaves its interior nodes in
  /// place, so a prefix above them stays unsettled.
  Cursor descend_settled(const Prefix& prefix) const {
    Cursor at = descend(prefix);
    if (at.node >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(at.node)];
      if (node.child[0] < 0 && node.child[1] < 0) {
        if (node.value >= 0) at.best = node.value;
        at.node = -1;
      }
    }
    return at;
  }

  /// Value of the most specific prefix containing `a`, or nullptr,
  /// resuming the walk at `from`; `a` must lie inside the prefix
  /// `from` descended.
  const T* longest_match_from(const Cursor& from, const Address& a) const {
    std::int32_t best = from.best;
    if (from.node >= 0) {
      std::size_t node = static_cast<std::size_t>(from.node);
      for (unsigned depth = from.depth;; ++depth) {
        if (nodes_[node].value >= 0) best = nodes_[node].value;
        if (depth == 128) break;
        const std::int32_t next = nodes_[node].child[a.bit(depth) ? 1 : 0];
        if (next < 0) break;
        node = static_cast<std::size_t>(next);
      }
    }
    return best < 0 ? nullptr : &values_[static_cast<std::size_t>(best)];
  }

  /// Value of the most specific prefix containing `a`, or nullptr.
  const T* longest_match(const Address& a) const {
    return longest_match_from(Cursor{}, a);
  }

  /// Exact-prefix lookup, or nullptr if that exact prefix was never inserted.
  const T* exact_match(const Prefix& prefix) const {
    const Cursor at = descend(prefix);
    if (at.node < 0) return nullptr;
    const std::int32_t v = nodes_[static_cast<std::size_t>(at.node)].value;
    return v < 0 ? nullptr : &values_[static_cast<std::size_t>(v)];
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

 private:
  // The only value-store allocation site, isolated out of line so
  // the symlint noalloc policy can allowlist it by name (the deque's push
  // machinery must never appear under a lint root directly): a
  // reserve()d trie pops the freelist instead and never gets here.
  [[gnu::noinline]] void grow_values() {
    free_slots_.push_back(static_cast<std::int32_t>(values_.size()));
    values_.push_back(T{});
  }

  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t value = -1;
  };
  std::vector<Node> nodes_;
  // deque, not vector: vector<bool>'s proxy references would break the
  // pointer-returning lookups.
  std::deque<T> values_;
  std::vector<std::int32_t> free_slots_;
  std::size_t live_ = 0;
};

}  // namespace v6h::ipv6

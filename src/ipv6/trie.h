#pragma once

// Binary longest-prefix-match trie over IPv6 prefixes. Nodes and
// values live in flat vectors (index links), so tries copy cheaply
// with their owner (BGP table, zone table, Murdock's /96 set). The
// trie is insert-only: it is built once and then only read.

#include <cstdint>
#include <utility>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"

namespace v6h::ipv6 {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

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
      nodes_[node].value = static_cast<std::int32_t>(values_.size());
      values_.push_back(std::move(value));
    } else {
      values_[static_cast<std::size_t>(nodes_[node].value)] = std::move(value);
    }
  }

  /// Release the node and value vectors' growth slack. The trie is
  /// insert-only, so its owner calls this once, after the last insert.
  void shrink_to_fit() {
    nodes_.shrink_to_fit();
    values_.shrink_to_fit();
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
  /// only when the path leaves the trie above p.length().
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
  /// node is -1 exactly when no inserted prefix lies strictly inside
  /// p (every node with children has a value below it): every address
  /// inside p then has the same longest match, `best`.
  /// longest_match_from answers alike for either form.
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

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t value = -1;
  };
  std::vector<Node> nodes_;
  std::vector<T> values_;
};

}  // namespace v6h::ipv6

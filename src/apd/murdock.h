#pragma once

// Murdock et al.'s static /96 alias detection (Section 5.5 baseline):
// probe pseudo-random addresses inside every /96 that holds a hitlist
// address; no multi-level refinement, no /64 exemption.

#include <cstdint>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "netsim/network_sim.h"

namespace v6h::apd {

struct MurdockResult {
  std::vector<ipv6::Prefix> aliased;  // the /96s judged aliased
  std::uint64_t addresses_probed = 0;

  bool is_aliased(const ipv6::Address& a) const {
    return trie.longest_match(a) != nullptr;
  }

  ipv6::PrefixTrie<std::uint32_t> trie;  // index into aliased
};

MurdockResult murdock_detect(netsim::NetworkSim& sim,
                             const std::vector<ipv6::Address>& targets, int day);

}  // namespace v6h::apd

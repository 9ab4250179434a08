#include "apd/murdock.h"

#include <unordered_set>

#include "net/protocol.h"
#include "util/rng.h"

namespace v6h::apd {

using ipv6::Address;
using ipv6::Prefix;

MurdockResult murdock_detect(netsim::NetworkSim& sim,
                             const std::vector<Address>& targets, int day) {
  MurdockResult result;
  std::unordered_set<Prefix, ipv6::PrefixHash> seen;
  for (const auto& target : targets) {
    const Prefix p96(target, 96);
    if (!seen.insert(p96).second) continue;
    unsigned responded = 0;
    for (unsigned i = 0; i < 16; ++i) {
      const Address a = p96.random_address(util::hash64(day, i, 0x96D));
      ++result.addresses_probed;
      responded += sim.probe(a, net::Protocol::kIcmp, day, i).responded;
    }
    if (responded == 16) {
      result.trie.insert(p96, static_cast<std::uint32_t>(result.aliased.size()));
      result.aliased.push_back(p96);
    }
  }
  return result;
}

}  // namespace v6h::apd

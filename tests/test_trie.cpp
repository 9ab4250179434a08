// Longest-prefix matching, overwrite on re-insert, and value-type
// copies.

#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;
using ipv6::PrefixTrie;

static void run_tests() {
  PrefixTrie<int> trie;
  CHECK(trie.longest_match(ipv6::must_parse("2001:db8::1")) == nullptr);
  trie.insert(ipv6::must_parse_prefix("2001:db8::/32"), 32);
  trie.insert(ipv6::must_parse_prefix("2001:db8:1::/48"), 48);
  trie.insert(ipv6::must_parse_prefix("2001:db8:1:2::/64"), 64);
  trie.insert(ipv6::must_parse_prefix("::/0"), 0);

  // Most specific wins.
  const int* m = trie.longest_match(ipv6::must_parse("2001:db8:1:2::99"));
  CHECK(m != nullptr && *m == 64);
  m = trie.longest_match(ipv6::must_parse("2001:db8:1:3::99"));
  CHECK(m != nullptr && *m == 48);
  m = trie.longest_match(ipv6::must_parse("2001:db8:ffff::1"));
  CHECK(m != nullptr && *m == 32);
  m = trie.longest_match(ipv6::must_parse("2002::1"));
  CHECK(m != nullptr && *m == 0);  // default route

  // Re-insert overwrites.
  trie.insert(ipv6::must_parse_prefix("2001:db8:1::/48"), 480);
  m = trie.longest_match(ipv6::must_parse("2001:db8:1:3::99"));
  CHECK(m != nullptr && *m == 480);

  // Without a default route, a miss is a miss.
  PrefixTrie<int> sparse;
  sparse.insert(ipv6::must_parse_prefix("2620:0:2d0::/48"), 1);
  CHECK(sparse.longest_match(ipv6::must_parse("2001::1")) == nullptr);

  // /128 host routes behave.
  sparse.insert(Prefix(ipv6::must_parse("2620:0:2d0::5"), 128), 2);
  m = sparse.longest_match(ipv6::must_parse("2620:0:2d0::5"));
  CHECK(m != nullptr && *m == 2);
  m = sparse.longest_match(ipv6::must_parse("2620:0:2d0::6"));
  CHECK(m != nullptr && *m == 1);

  // Copies are independent, deep, and cheap to make (flat storage).
  PrefixTrie<int> copy = sparse;
  copy.insert(ipv6::must_parse_prefix("2620:0:2d0:8000::/50"), 3);
  CHECK(copy.longest_match(ipv6::must_parse("2620:0:2d0:8000::1")) != nullptr &&
        *copy.longest_match(ipv6::must_parse("2620:0:2d0:8000::1")) == 3);
  m = sparse.longest_match(ipv6::must_parse("2620:0:2d0:8000::1"));
  CHECK(m != nullptr && *m == 1);

  // Randomized agreement with a brute-force scan.
  util::Rng rng(99);
  std::vector<std::pair<Prefix, int>> inserted;
  PrefixTrie<int> fuzz;
  for (int i = 0; i < 500; ++i) {
    const Address a = Address::from_u64(0x2000000000000000ULL | (rng.next_u64() >> 4),
                                        rng.next_u64());
    const Prefix p(a, static_cast<std::uint8_t>(16 + rng.uniform(97)));
    fuzz.insert(p, i);
    inserted.emplace_back(p, i);
  }
  for (int i = 0; i < 500; ++i) {
    const Address probe = Address::from_u64(
        0x2000000000000000ULL | (rng.next_u64() >> 4), rng.next_u64());
    int best_len = -1, best_value = -1;
    for (const auto& [p, value] : inserted) {
      if (p.contains(probe) && static_cast<int>(p.length()) >= best_len) {
        // Later insert wins ties (overwrite semantics).
        if (static_cast<int>(p.length()) > best_len || value > best_value) {
          best_value = value;
        }
        best_len = p.length();
      }
    }
    const int* found = fuzz.longest_match(probe);
    if (best_len < 0) {
      CHECK(found == nullptr);
    } else {
      CHECK(found != nullptr && *found == best_value);
    }
  }
}

TEST_MAIN()

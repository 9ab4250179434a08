// Randomized property test for ipv6::PrefixTrie: insert 10k random
// prefixes with a fixed-seed LCG and check longest_match, and the
// resumed walks longest_match_from(descend(p), a) and
// longest_match_from(descend_settled(p), a) for addresses inside p,
// against a brute-force linear scan; the settled walk must settle
// (node < 0) exactly when no inserted prefix lies strictly inside p.
// Then re-insert every prefix with a new value and check
// longest_match again. Plus the empty-trie, /0, /128, and
// duplicate-insert edge cases.

#include <map>
#include <vector>

#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "test_main.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;
using ipv6::PrefixTrie;

namespace {

// Classic 64-bit LCG (MMIX constants), fixed seed: the test is fully
// reproducible without util::Rng so a trie bug can't hide behind a
// shared hashing utility.
struct Lcg {
  std::uint64_t state = 0x123456789abcdef0ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
};

// Brute-force reference: the value of the longest prefix containing
// `a`, scanning every inserted (prefix -> value) pair linearly.
const int* brute_force(const std::map<Prefix, int>& model, const Address& a) {
  const int* best = nullptr;
  int best_length = -1;
  for (const auto& [prefix, value] : model) {
    if (prefix.contains(a) && static_cast<int>(prefix.length()) > best_length) {
      best_length = prefix.length();
      best = &value;
    }
  }
  return best;
}

// `got` must be the value of the model's longest prefix containing `a`.
void check_match(const int* got, const std::map<Prefix, int>& model,
                 const Address& a) {
  const int* expected = brute_force(model, a);
  if (expected == nullptr) {
    CHECK(got == nullptr);
  } else {
    CHECK(got != nullptr && *got == *expected);
  }
}

void check_against_model(const PrefixTrie<int>& trie,
                         const std::map<Prefix, int>& model,
                         const Address& a) {
  check_match(trie.longest_match(a), model, a);
}

// Does the model hold a prefix strictly inside `p`?
bool holds_inside(const std::map<Prefix, int>& model, const Prefix& p) {
  for (const auto& entry : model) {
    if (entry.first.length() > p.length() && p.contains(entry.first)) {
      return true;
    }
  }
  return false;
}

// One descent to `p` by each walk, then the resumed walk for addresses
// inside p. The settled cursor must be settled exactly when nothing
// lies inside p. Returns whether the unfolded path left the trie above
// p's length.
bool check_cursor(const PrefixTrie<int>& trie,
                  const std::map<Prefix, int>& model, const Prefix& p,
                  Lcg& lcg) {
  const auto cursor = trie.descend(p);
  const auto settled = trie.descend_settled(p);
  for (int k = 0; k < 2; ++k) {
    const Address a = p.random_address(lcg.next());
    check_match(trie.longest_match_from(cursor, a), model, a);
    check_match(trie.longest_match_from(settled, a), model, a);
  }
  CHECK_EQ(settled.node < 0, !holds_inside(model, p));
  return cursor.node < 0;
}

void run_tests() {
  Lcg lcg;

  // --- empty trie and duplicate insert ---
  {
    PrefixTrie<int> trie;
    CHECK(trie.longest_match(Address::from_u64(1, 2)) == nullptr);
    trie.insert(Prefix(Address::from_u64(0x2001ull << 48, 0), 32), 7);
    // Duplicate insert overwrites the value.
    trie.insert(Prefix(Address::from_u64(0x2001ull << 48, 0), 32), 9);
    const int* hit = trie.longest_match(Address::from_u64(0x2001ull << 48, 5));
    CHECK(hit != nullptr && *hit == 9);
  }

  // --- /0 and /128 edge cases ---
  {
    PrefixTrie<int> trie;
    std::map<Prefix, int> model;
    const Prefix root(Address{}, 0);  // matches every address
    trie.insert(root, 1);
    model.emplace(root, 1);
    const Address host = Address::from_u64(0xfe80ull << 48, 0x1234);
    const Prefix p128(host, 128);
    trie.insert(p128, 2);
    model.emplace(p128, 2);

    const int* on_host = trie.longest_match(host);
    CHECK(on_host != nullptr && *on_host == 2);  // /128 beats /0
    const int* elsewhere = trie.longest_match(Address::from_u64(1, 1));
    CHECK(elsewhere != nullptr && *elsewhere == 1);
    check_against_model(trie, model, host);
    // An address one bit off the /128 must fall back to the /0.
    Address off = host;
    off.lo ^= 1;
    check_against_model(trie, model, off);
  }

  // --- 10k random prefixes vs brute force ---
  PrefixTrie<int> trie;
  std::map<Prefix, int> model;
  std::vector<Prefix> inserted;
  for (int i = 0; i < 10000; ++i) {
    const Address a = Address::from_u64(lcg.next(), lcg.next());
    // Bias lengths toward the real hitlist range but cover 0..128.
    const unsigned pick = static_cast<unsigned>(lcg.next() % 100);
    unsigned length;
    if (pick < 5) {
      length = static_cast<unsigned>(lcg.next() % 9);  // 0..8
    } else if (pick < 15) {
      length = 120 + static_cast<unsigned>(lcg.next() % 9);  // 120..128
    } else {
      length = 16 + static_cast<unsigned>(lcg.next() % 104);  // 16..119
    }
    const Prefix prefix(a, static_cast<std::uint8_t>(length));
    trie.insert(prefix, i);
    model[prefix] = i;  // duplicate insert == overwrite, same as trie
    inserted.push_back(prefix);
  }

  // Probe addresses: random, inside a random inserted prefix, and one
  // bit below a random inserted prefix boundary.
  std::vector<Address> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(Address::from_u64(lcg.next(), lcg.next()));
    const Prefix& in = inserted[lcg.next() % inserted.size()];
    probes.push_back(in.random_address(lcg.next()));
    const Prefix& near = inserted[lcg.next() % inserted.size()];
    Address edge = near.random_address(lcg.next());
    if (near.length() > 0 && near.length() < 128) {
      // Flip the bit just above the host part: leaves the prefix.
      const unsigned bit = near.length() - 1;
      if (bit < 64) {
        edge.hi ^= 1ull << (63 - bit);
      } else {
        edge.lo ^= 1ull << (127 - bit);
      }
    }
    probes.push_back(edge);
  }
  for (const auto& a : probes) check_against_model(trie, model, a);

  // Cursor prefixes: inserted ones (their path always exists), random
  // ones of any length, and long random ones, whose path leaves the
  // trie above their length.
  std::vector<Prefix> cursor_prefixes;
  for (int i = 0; i < 200; ++i) {
    cursor_prefixes.push_back(inserted[lcg.next() % inserted.size()]);
    cursor_prefixes.emplace_back(Address::from_u64(lcg.next(), lcg.next()),
                                 static_cast<std::uint8_t>(lcg.next() % 129));
    cursor_prefixes.emplace_back(
        Address::from_u64(lcg.next(), lcg.next()),
        static_cast<std::uint8_t>(96 + lcg.next() % 33));
  }
  std::size_t left_trie = 0;
  std::size_t inserted_left_trie = 0;
  for (std::size_t i = 0; i < cursor_prefixes.size(); ++i) {
    const bool left = check_cursor(trie, model, cursor_prefixes[i], lcg);
    left_trie += left;
    inserted_left_trie += left && i % 3 == 0;
  }
  CHECK(left_trie > 0);
  CHECK_EQ(inserted_left_trie, 0u);

  // Duplicate re-insert of every prefix: the values move.
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    trie.insert(inserted[i], static_cast<int>(i) + 1000000);
    model[inserted[i]] = static_cast<int>(i) + 1000000;
  }
  for (const auto& a : probes) check_against_model(trie, model, a);
  for (int i = 0; i < 200; ++i) {
    check_against_model(trie, model,
                        Address::from_u64(lcg.next(), lcg.next()));
  }
}

}  // namespace

TEST_MAIN()

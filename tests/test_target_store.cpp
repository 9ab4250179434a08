// TargetStore's sorted-run ordered index: the dedup contract,
// rows_within and rows_within_many against a brute-force filter
// across single prefixes of every length (including /0 and /128) and
// across nested ones (dedup, row order, append), and the run-merge
// machinery across many spill boundaries. Plus the aliased-count
// column add_cover moves.

#include <algorithm>
#include <vector>

#include "hitlist/target_store.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using ipv6::Address;
using ipv6::Prefix;

namespace {

void run_sorted_run_tests() {
  util::Rng rng(99);
  hitlist::TargetStore store;
  std::vector<Address> inserted;

  // Cluster addresses into a handful of /48s and /64s so range
  // queries have dense members, plus a uniform haze; re-insert
  // duplicates along the way.
  std::vector<Address> bases;
  for (int i = 0; i < 8; ++i) {
    bases.push_back(Address::from_u64(
        (0x20010000ULL + rng.uniform(0x40)) << 32 | (rng.next_u64() & 0xffff0000ULL),
        0));
  }
  for (int i = 0; i < 4000; ++i) {
    Address a;
    if (rng.uniform_real() < 0.7) {
      a = bases[rng.uniform(bases.size())];
      a.lo = rng.uniform_real() < 0.5 ? rng.uniform(512) : rng.next_u64();
    } else {
      a = Address::from_u64(rng.next_u64(), rng.next_u64());
    }
    const bool fresh =
        std::find(inserted.begin(), inserted.end(), a) == inserted.end();
    CHECK_EQ(store.insert(a), fresh);
    if (fresh) inserted.push_back(a);
    if (i % 1000 == 0) {
      CHECK(!store.insert(inserted.front()));  // duplicate rejected
    }
  }
  CHECK_EQ(store.size(), inserted.size());
  CHECK(store.sorted_run_count() > 1);  // the merge path actually ran

  auto brute_force = [&](const Prefix& prefix) {
    // Expected contract: matching rows in ascending row order.
    std::vector<std::uint32_t> rows;
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (prefix.contains(store.address(row))) {
        rows.push_back(static_cast<std::uint32_t>(row));
      }
    }
    return rows;
  };

  std::vector<Prefix> queries;
  for (const auto& base : bases) {
    for (const std::uint8_t length : {32, 48, 64, 96, 112, 128}) {
      queries.emplace_back(base, length);
    }
  }
  queries.emplace_back(Address{}, 0);  // everything
  queries.emplace_back(Address::from_u64(rng.next_u64(), rng.next_u64()), 128);

  std::size_t nonempty = 0;
  for (const auto& prefix : queries) {
    std::vector<std::uint32_t> rows;
    store.rows_within_many({prefix}, &rows);
    const auto expected = brute_force(prefix);
    CHECK(rows == expected);
    nonempty += !expected.empty();
    // One prefix's members, each once, in no particular order.
    std::vector<std::uint32_t> members{0xdead};
    store.rows_within(prefix, &members);
    CHECK_EQ(members.front(), 0xdeadu);
    std::sort(members.begin() + 1, members.end());
    CHECK(std::vector<std::uint32_t>(members.begin() + 1, members.end()) ==
          expected);
  }
  CHECK(nonempty >= bases.size());  // the clustered queries had members

  // Several prefixes: union across (nested, overlapping) prefixes,
  // deduplicated, ascending row order, appended after existing
  // content.
  {
    std::vector<Prefix> nested{Prefix(bases[0], 48), Prefix(bases[0], 64),
                               Prefix(bases[1], 48)};
    std::vector<std::uint32_t> rows{0xdead};
    store.rows_within_many(nested, &rows);
    CHECK_EQ(rows.front(), 0xdeadu);
    std::vector<std::uint32_t> expected;
    for (const auto& prefix : nested) {
      const auto one = brute_force(prefix);
      expected.insert(expected.end(), one.begin(), one.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    CHECK(std::vector<std::uint32_t>(rows.begin() + 1, rows.end()) == expected);
  }

  // The column accessors stay aligned with insertion order.
  for (std::size_t row = 0; row < store.size(); ++row) {
    CHECK(store.address(row) == inserted[row]);
  }

  // Rows start at count 0; add_cover moves exactly its row's count, in
  // both directions, aliased(row) reads "count nonzero", and the column
  // holds the count itself.
  CHECK_EQ(store.aliased().size(), store.size());
  store.add_cover(3, 1);
  store.add_cover(3, 1);
  store.add_cover(5, 1);
  store.add_cover(5, -1);
  store.add_cover(7, 2);
  store.add_cover(7, -1);
  std::size_t count_mismatches = 0;
  for (std::size_t row = 0; row < store.size(); ++row) {
    const int want = row == 3 ? 2 : row == 7 ? 1 : 0;
    count_mismatches += store.aliased()[row] != want ||
                        store.aliased(row) != (want != 0);
  }
  CHECK_EQ(count_mismatches, 0u);
}

void run_tests() { run_sorted_run_tests(); }

}  // namespace

TEST_MAIN()

// TargetStore's sorted-run ordered index (ISSUE 4 satellite): the
// dedup contract, rows_within_many against a brute-force filter
// across single prefixes of every length (including /0 and /128) and
// across nested ones (dedup, row order, append), and the run-merge
// machinery across many spill boundaries. Plus (ISSUE 5 satellite)
// the incrementally-maintained unaliased-row index against a
// brute-force flags walk across interleaved insert batches and
// verdict-flip days.

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
    CHECK_EQ(store.insert(a, i % 30), fresh);
    if (fresh) inserted.push_back(a);
    if (i % 1000 == 0) {
      CHECK(!store.insert(inserted.front(), i % 30));  // duplicate rejected
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
}

// The incremental unaliased-row index must match a brute-force walk
// of the flags column after any interleaving of appended rows and
// verdict flips — including rows flipping back within one batch, a
// day with no flips at all, and reads between every mutation batch.
void run_unaliased_index_tests() {
  util::Rng rng(7);
  hitlist::TargetStore store;

  auto brute_force = [&] {
    std::vector<std::uint32_t> rows;
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.aliased(row)) rows.push_back(static_cast<std::uint32_t>(row));
    }
    return rows;
  };

  CHECK(store.unaliased_rows().empty());  // empty store, empty index

  std::size_t flip_days = 0;
  for (int day = 0; day < 40; ++day) {
    // Growth: a delta of new rows (possibly zero — steady-state days).
    const std::size_t grow = day % 7 == 3 ? 0 : rng.uniform(120);
    for (std::size_t i = 0; i < grow; ++i) {
      store.insert(Address::from_u64(rng.next_u64(), rng.next_u64()), day);
    }
    // New rows may be flagged before the index ever saw them (the
    // pipeline filters the day's new rows first).
    for (std::size_t row = store.size() - grow; row < store.size(); ++row) {
      if (rng.uniform_real() < 0.25) store.set_aliased(row, true);
    }
    // Flip days: batches of verdict transitions over old rows, with
    // deliberate no-op re-assignments and double flips (back to the
    // original value) mixed in.
    if (day % 3 == 0 && store.size() > 0) {
      ++flip_days;
      for (int f = 0; f < 64; ++f) {
        const std::size_t row = rng.uniform(store.size());
        const bool value = rng.uniform_real() < 0.5;
        store.set_aliased(row, value);
        if (rng.uniform_real() < 0.3) store.set_aliased(row, !value);
        if (rng.uniform_real() < 0.3) store.set_aliased(row, value);
      }
    }
    const auto& rows = store.unaliased_rows();
    CHECK(rows == brute_force());
    // Repeated reads with no interleaved mutation are stable.
    CHECK(store.unaliased_rows() == brute_force());
  }
  CHECK(flip_days > 0);
  CHECK(!store.unaliased_rows().empty());
}

void run_tests() {
  run_sorted_run_tests();
  run_unaliased_index_tests();
}

}  // namespace

TEST_MAIN()

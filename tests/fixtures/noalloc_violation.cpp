// Negative fixture for symlint.py --policy noalloc: a deliberately
// allocating call graph shaped like the hot path, proving the lint
// bites. fixture_hot_path() allocates through a helper whose name is
// adjacent to the allowlisted `std::vector<...>::reserve` pattern —
// if the allowlist regexes ever loosen from "std::vector's own
// methods" to "anything called reserve", the noalloc_lint_negative
// ctest test goes red before a real hot-path allocation can hide
// behind the same loophole. Compiled into its own object library
// (noalloc_fixture) and never linked into the product.

#include <cstddef>
#include <cstdint>

namespace v6h::scan {

namespace {

// Name-adjacent to the allowlisted vector machinery, but NOT a
// std::vector member: must still be flagged.
std::uint64_t* reserve_scratch(std::size_t n) { return new std::uint64_t[n]; }

}  // namespace

// The fixture root the lint walks from (mirrors a scan-path shape:
// refill a buffer, tally it).
std::uint64_t fixture_hot_path(std::size_t rows) {
  std::uint64_t* scratch = reserve_scratch(rows);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    scratch[i] = i;
    sum += scratch[i];
  }
  delete[] scratch;
  return sum;
}

}  // namespace v6h::scan

namespace v6h::obs {

namespace {

// A span-shaped RAII helper whose destructor buys a buffer: the exact
// mistake an instrumentation site would make by recording into a
// growable container instead of the preallocated ring. The real
// StageSpan/TraceRing pair must never look like this, and the lint
// walking the obs roots must flag it when it does.
struct AllocatingSpan {
  std::uint64_t* slot;
  explicit AllocatingSpan(std::uint64_t start) {
    slot = new std::uint64_t(start);
  }
  ~AllocatingSpan() { delete slot; }
};

}  // namespace

// Fixture root mirroring an instrumented stage entry (registered as a
// lint root by the noalloc_lint_negative ctest).
std::uint64_t fixture_span_path(std::uint64_t start, std::uint64_t end) {
  AllocatingSpan span(start);
  return end - *span.slot;
}

}  // namespace v6h::obs

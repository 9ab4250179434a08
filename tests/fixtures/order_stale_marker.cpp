// Negative fixture for tools/order_lint.py's stale-marker rule: an
// allow marker left above a loop over a plain std::vector, which
// iterates in a stable order and needs no hatch. The marker covers no
// finding, so the order_lint_stale_negative ctest must flag it; a
// hatch that outlives the code it excused would silently excuse
// whatever lands under it next. Compiled into the symlint_fixture
// object library — to prove it stays valid C++ — and never linked
// into the product.

#include <cstdint>
#include <vector>

namespace v6h::obs {

std::uint64_t fixture_sum_counters(const std::vector<std::uint64_t>& counters) {
  std::uint64_t total = 0;
  // order_lint: allow(sum-commutative: counters fold in any order)
  for (const auto value : counters) total += value;
  return total;
}

}  // namespace v6h::obs

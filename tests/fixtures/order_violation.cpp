// Negative fixture for tools/order_lint.py: an exporter that walks a
// std::unordered_map in hash-iteration order and streams the pairs
// straight into its output vector. Hash order depends on libstdc++
// version, bucket count history, and (for pointer-ish keys) ASLR —
// so this export is not a pure function of its inputs, which is
// order-nondeterminism the *binary* symbol walk can never see: no
// banned symbol is called, the bug is purely in iteration order
// reaching publication. The order_lint_negative ctest lints this file
// and must flag the range-for below (there is deliberately no allow
// marker in this file). Compiled into the symlint_fixture object
// library — to prove it stays valid C++ — and never linked into the
// product.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace v6h::obs {

// The fixture "exporter": counters keyed by metric id, dumped in
// whatever order the table iterates. A correct exporter sorts the
// ids first (or walks a dense descriptor table, as obs::Registry
// does).
void fixture_export_counters(
    const std::unordered_map<std::uint32_t, std::uint64_t>& counters,
    std::vector<std::pair<std::uint32_t, std::uint64_t>>* out) {
  for (const auto& entry : counters) {
    out->push_back(entry);
  }
}

}  // namespace v6h::obs

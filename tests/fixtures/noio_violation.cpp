// Negative fixture for symlint's `noio` policy: a scan-sweep-shaped
// call graph with a sneaky fprintf buried two calls deep — the
// classic leftover debug log. Stream I/O inside the steady-state day
// loop is banned outright: it serializes the parallel sweep on libc's
// stream lock, drags locale state into the hot path, and (worst)
// normalizes writing output from inside the loop, which is how
// nondeterministic telemetry ends up interleaved with publication
// data. Telemetry export is cold-path by design (obs::trace_json
// runs outside the rooted graph); this fixture proves the lint bites
// anything that tries to print from inside. The
// noio_lint_negative ctest walks fixture_probe_sweep and must find
// this path. Compiled into the symlint_fixture object library and
// never linked into the product.

#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace v6h::scan {

namespace {

// The "temporary" progress note a sweep grows during debugging.
void debug_note(std::size_t row, std::uint64_t mask) {
  std::fprintf(stderr, "row %zu -> mask %llx\n", row,
               static_cast<unsigned long long>(mask));
}

std::uint64_t sweep_row(std::size_t row) {
  const std::uint64_t mask = (row * 0x9E3779B97F4A7C15ull) >> 32;
  if ((mask & 0xFFu) == 0) debug_note(row, mask);
  return mask;
}

}  // namespace

// The fixture root the lint walks from (mirrors a probe sweep over a
// row range).
std::uint64_t fixture_probe_sweep(std::size_t rows) {
  std::uint64_t acc = 0;
  for (std::size_t row = 0; row < rows; ++row) acc ^= sweep_row(row);
  return acc;
}

}  // namespace v6h::scan

#pragma once

// Opt-in global counting allocator: include this header in EXACTLY
// ONE translation unit of a binary to replace the replaceable global
// operator new/new[] with malloc-backed versions that bump a process
// counter, readable via v6h::util::allocation_count(). Shared by the
// zero-allocation tests (tests/test_scan_frame.cpp,
// tests/test_day_alloc.cpp, tests/test_obs.cpp) so the enforcement
// points can never disagree about what counts as an allocation. The
// replacement functions are deliberately non-inline (the standard
// forbids inline replacements); including this from two TUs of one
// binary is an ODR violation by design.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace v6h::util {

inline std::atomic<std::uint64_t> g_allocation_count{0};

inline std::uint64_t allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

}  // namespace v6h::util

// GCC pairs `delete` expressions in the including TU against these
// replacements and warns that std::free does not match the (assumed
// default) operator new — a false positive once new/new[] are
// malloc-backed too, which is exactly the replacement contract.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  v6h::util::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  v6h::util::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

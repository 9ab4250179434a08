#pragma once

// Parallel execution engine for the daily pipeline: a work-stealing
// ThreadPool plus the deterministic parallel_for every pipeline stage
// (source draws, APD fan-out, protocol scans, new rows' aliased
// counts, universe construction) is routed through. parallel_for splits the
// caller's index range into contiguous chunks, so a sorted input keeps
// each chunk inside one region of the address space.
//
// Determinism contract: a null Engine* or threads == 1 executes every
// loop inline on the historical serial path; for any other thread
// count, callers write disjoint index-addressed outputs and merge in
// input order, so results are byte-identical to the serial run.

#include <cstddef>
#include <memory>
#include <utility>

#include "engine/thread_pool.h"
#include "util/function_ref.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::engine {

/// Hard ceiling on chunks per parallel_for sweep. The chunk count is
/// derived from the range size and the worker count (~8 stealable
/// chunks per worker), then clamped here so a huge range on a huge
/// machine cannot explode the per-sweep scheduling work; the pool
/// itself handles far larger task counts (>= 1e5, regression-tested in
/// tests/test_engine_chunks.cpp) via batched per-queue enqueue, so the
/// ceiling is a scheduling-overhead bound, not a correctness limit.
inline constexpr std::size_t kMaxChunksPerSweep = 4096;

struct EngineOptions {
  /// Worker count; 0 picks hardware concurrency, 1 is strictly serial.
  unsigned threads = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  unsigned threads() const { return threads_; }
  bool parallel() const { return pool_ != nullptr; }

  /// Attach (or detach with nullptr) the observability layer: sweep
  /// dispatches record chunk telemetry and a "pool_run" span, and pool
  /// workers count executed/stolen tasks. Call only between runs (the
  /// harness owns the ordering); the engine never owns the object and
  /// must be detached before it is destroyed.
  void set_observability(obs::Observability* obs);

  /// fn(begin, end) over disjoint chunks covering [0, n). Chunks land
  /// on all workers via work-stealing; with one thread (or n <= grain)
  /// this is a single inline fn(0, n) call.
  ///
  /// Synchronization contract: fn runs concurrently on pool workers
  /// and must confine its writes to chunk-disjoint, index-addressed
  /// outputs (or atomics with a documented ordering). The return of
  /// parallel_for is a full barrier — every fn write is visible to
  /// the caller afterwards (ThreadPool::remaining_ acq/rel) — so
  /// callers need no locks to read the results serially.
  ///
  /// Allocation contract: the callable is borrowed by FunctionRef —
  /// never copied into a std::function — so dispatch itself performs
  /// no heap allocation; the day loop's zero-alloc invariant counts
  /// on it. The template keeps the serial branch a direct fn(0, n)
  /// call, which also keeps lambda bodies visible to the no-alloc
  /// lint's direct-call walk.
  template <typename Fn>
  void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    if (pool_ == nullptr || n <= grain) {
      fn(std::size_t{0}, n);
      return;
    }
    parallel_chunks(n, grain,
                    util::FunctionRef<void(std::size_t, std::size_t)>(fn));
  }

 private:
  /// Out-of-line chunked dispatch through the pool. `fn` is borrowed;
  /// ThreadPool::run is a full barrier, so the caller's frame outlives
  /// every invocation.
  void parallel_chunks(std::size_t n, std::size_t grain,
                       util::FunctionRef<void(std::size_t, std::size_t)> fn);

  unsigned threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  obs::Observability* obs_ = nullptr;  // borrowed; set between runs
};

}  // namespace v6h::engine

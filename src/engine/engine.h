#pragma once

// Parallel execution engine for the daily pipeline: a fixed set of
// worker threads and engine::parallel_for, the one dispatch call every
// pipeline stage (source draws, APD descents and fan-out, protocol
// scans, new rows' aliased counts, universe construction) goes
// through. parallel_for splits the caller's index range into
// contiguous chunks, and the caller and the workers claim chunk
// indices from one shared cursor.
//
// Determinism contract: a null Engine* or threads == 1 executes every
// loop inline as one fn(0, n) call; for any other thread count,
// callers write disjoint index-addressed outputs and merge in input
// order, so results are byte-identical to the serial run.
//
// Locking discipline (checked by -Wthread-safety under Clang): the
// published sweep and the epoch/stop/claiming wake protocol are
// guarded by mu_. The cursor and the remaining count are atomics whose
// orderings are documented at their declarations.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/function_ref.h"
#include "util/thread_annotations.h"

namespace v6h::obs {
class Observability;
}  // namespace v6h::obs

namespace v6h::engine {

/// Hard ceiling on chunks per parallel_for sweep. The chunk count is
/// derived from the range size and the worker count (~8 chunks per
/// worker), then clamped here so a huge range on a huge machine cannot
/// explode the per-sweep claim traffic; the cursor itself hands out
/// any count, so the ceiling bounds scheduling overhead, not
/// correctness.
inline constexpr std::size_t kMaxChunksPerSweep = 4096;

struct EngineOptions {
  /// Worker count; 0 picks hardware concurrency, 1 is strictly serial.
  unsigned threads = 0;
};

class Engine;

/// fn(begin, end) over disjoint chunks covering [0, n): the one
/// dispatch call. A null engine, a one-thread engine, n <= grain, and
/// a call made from inside another sweep's chunk (on the caller or on
/// a worker) all run one inline fn(0, n); n == 0 makes no call.
///
/// Synchronization contract: fn runs concurrently on the workers and
/// must confine its writes to chunk-disjoint, index-addressed outputs
/// (or atomics with a documented ordering). The return of parallel_for
/// is a full barrier: every fn write is visible to the caller
/// afterwards (Engine::remaining_ acq/rel), so callers need no locks
/// to read the results serially.
///
/// Allocation contract: the callable is borrowed by FunctionRef, never
/// copied into a std::function, so dispatch itself performs no heap
/// allocation; the day loop's zero-alloc invariant counts on it. The
/// template keeps the inline branch a direct fn(0, n) call, which also
/// keeps lambda bodies visible to the no-alloc lint's direct-call walk.
template <typename Fn>
void parallel_for(Engine* engine, std::size_t n, std::size_t grain, Fn&& fn);

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  // The workers hold `this`.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  unsigned threads() const { return threads_; }

  /// Attach (or detach with nullptr) the observability layer: sweeps
  /// record chunk telemetry and a "pool_run" span, and every thread
  /// counts the chunks it runs. Call only between sweeps; each sweep
  /// hands the pointer to the workers with its geometry, under mu_.
  /// The engine never owns the object and must be detached before it
  /// is destroyed.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

 private:
  template <typename Fn>
  friend void parallel_for(Engine* engine, std::size_t n, std::size_t grain, Fn&& fn);

  using Chunk = util::FunctionRef<void(std::size_t, std::size_t)>;

  // One sweep's chunk geometry. The caller's `fn` lives in run()'s
  // frame, and run() returns only after every chunk has finished.
  struct Sweep {
    const Chunk* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;   // indices per chunk
    std::size_t chunks = 0;  // chunk indices [0, chunks)
    obs::Observability* obs = nullptr;
  };

  bool splits(std::size_t n, std::size_t grain) const {
    return threads_ > 1 && n > std::max<std::size_t>(grain, 1) && !inside_;
  }

  // Split [0, n) into chunks, publish them, claim chunks on the
  // calling thread too, and return once every chunk has finished.
  void run(std::size_t n, std::size_t grain, Chunk fn);
  // Claim and run chunks of `sweep` until the cursor passes its last.
  void drain(const Sweep& sweep);
  void worker_loop(unsigned lane);
  void stop_workers();

  unsigned threads_ = 1;
  obs::Observability* obs_ = nullptr;  // borrowed; set between sweeps
  // Set by the caller for the length of run(). Workers read it only
  // inside a chunk, after taking the sweep under mu_ and before the
  // remaining_ barrier run() waits on, so it needs no atomic.
  bool inside_ = false;

  util::Mutex mu_;
  util::CondVar wake_;  // workers: a new epoch or stop_
  util::CondVar done_;  // caller: remaining_ or claiming_ reached zero
  Sweep sweep_ V6H_GUARDED_BY(mu_);
  std::uint64_t epoch_ V6H_GUARDED_BY(mu_) = 0;
  bool stop_ V6H_GUARDED_BY(mu_) = false;
  // Workers that took a sweep and have not yet left its claim loop.
  // run() resets the cursor only once this is zero: a worker still
  // claiming from the last sweep would otherwise take an index of the
  // next one and run it with the last sweep's geometry.
  unsigned claiming_ V6H_GUARDED_BY(mu_) = 0;
  // The next unclaimed chunk index. fetch_add hands out each index
  // once; relaxed is enough because run() resets it under mu_ while
  // no worker claims, and workers start claiming only after taking
  // the sweep under mu_.
  std::atomic<std::size_t> next_{0};
  // Chunks not yet finished in the current sweep. fetch_sub(acq_rel)
  // after each chunk body makes every chunk's writes visible to the
  // caller, whose predicate re-load under mu_ uses acquire.
  std::atomic<std::size_t> remaining_{0};
  std::vector<std::thread> workers_;  // last: they use every field above
};

template <typename Fn>
void parallel_for(Engine* engine, std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (engine != nullptr && engine->splits(n, grain)) {
    engine->run(n, grain, Engine::Chunk(fn));
    return;
  }
  fn(std::size_t{0}, n);
}

}  // namespace v6h::engine

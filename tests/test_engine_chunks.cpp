// Engine chunking and pool dispatch regression tests (ISSUE 9
// satellite): the parallel_for chunk count is derived from the range
// size and the worker count with the explicit kMaxChunksPerSweep
// ceiling, every index of [0, n) is visited exactly once at any
// chunk/thread geometry, and ThreadPool::run survives task counts of
// 1e5+ (the batched per-queue enqueue path) without losing or
// duplicating an index.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "obs/obs.h"
#include "test_main.h"
#include "util/function_ref.h"

using namespace v6h;

namespace {

// The >= 1e5 task regression: the old per-task lock/enqueue pattern is
// gone, but the contract stays observable — run() must execute every
// index exactly once regardless of how the queues were filled, and a
// second run over the recycled queues must too.
void pool_large_run(unsigned threads) {
  engine::ThreadPool pool(threads);
  constexpr std::size_t kTasks = 120000;
  std::vector<std::atomic<std::uint8_t>> counts(kTasks);
  auto task = [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  };
  for (int round = 0; round < 2; ++round) {
    pool.run(kTasks, util::FunctionRef<void(std::size_t)>(task));
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    wrong += counts[i].load(std::memory_order_relaxed) != 2;
  }
  CHECK_EQ(wrong, 0u);
}

// Full-range coverage at a large n with the smallest grain, plus the
// chunk-count ceiling read back through the metrics registry (the
// same numbers the telemetry layer exports).
void parallel_for_coverage(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  obs::ObsOptions obs_options;  // metrics only; no ring needed here
  obs::Observability observability(obs_options, eng.threads());
  eng.set_observability(&observability);

  constexpr std::size_t kRows = 2'000'000;
  std::vector<std::uint8_t> marks(kRows, 0);
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> covered{0};
  // The CHECK counters are plain ints (single-threaded by design), so
  // the concurrent callback records violations into an atomic and the
  // serial code below asserts on it.
  std::atomic<std::size_t> bad_ranges{0};
  eng.parallel_for(kRows, 1, [&](std::size_t begin, std::size_t end) {
    if (begin >= end || end > kRows) {
      bad_ranges.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = begin; i < end; ++i) ++marks[i];
    calls.fetch_add(1, std::memory_order_relaxed);
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  eng.set_observability(nullptr);
  CHECK_EQ(bad_ranges.load(), 0u);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kRows; ++i) wrong += marks[i] != 1;
  CHECK_EQ(wrong, 0u);
  CHECK_EQ(covered.load(), kRows);
  // The ceiling: never more chunks than ~8 per worker, hard-capped.
  const std::size_t expected_cap =
      std::min<std::size_t>(static_cast<std::size_t>(threads) * 8,
                            engine::kMaxChunksPerSweep);
  CHECK(calls.load() >= 1);
  CHECK(calls.load() <= std::max<std::size_t>(expected_cap, 1));

  // The registry saw the same sweep the callback counted: one
  // parallel_for, `calls` chunks (parallel engines only — a serial
  // engine never dispatches through parallel_chunks).
  observability.registry().merge_day();
  const obs::Registry& registry = observability.registry();
  const obs::CoreMetrics& core = observability.core();
  if (eng.parallel()) {
    CHECK_EQ(registry.merged(core.parallel_fors), 1u);
    CHECK_EQ(registry.merged(core.chunks), calls.load());
  } else {
    CHECK_EQ(registry.merged(core.parallel_fors), 0u);
    CHECK_EQ(registry.merged(core.chunks), 0u);
  }
}

// Geometry edge cases: empty ranges, grain 0, ranges below the grain,
// and a grain that does not divide n — all must cover exactly [0, n)
// with chunk sizes respecting the grain floor.
void parallel_for_edges(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);

  {  // n == 0: no calls at all
    std::atomic<std::size_t> calls{0};
    eng.parallel_for(0, 4, [&](std::size_t, std::size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    CHECK_EQ(calls.load(), 0u);
  }
  {  // n <= grain: exactly one inline call covering everything
    std::atomic<std::size_t> calls{0};
    eng.parallel_for(7, 16, [&](std::size_t begin, std::size_t end) {
      CHECK_EQ(begin, 0u);
      CHECK_EQ(end, 7u);
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    CHECK_EQ(calls.load(), 1u);
  }
  {  // grain 0 behaves like grain 1; odd n still covers exactly
    constexpr std::size_t kRows = 10007;  // prime: never divides evenly
    std::vector<std::atomic<std::uint8_t>> marks(kRows);
    std::atomic<std::size_t> min_len{kRows};
    eng.parallel_for(kRows, 0, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        marks[i].fetch_add(1, std::memory_order_relaxed);
      }
      std::size_t len = end - begin;
      std::size_t seen = min_len.load(std::memory_order_relaxed);
      while (len < seen &&
             !min_len.compare_exchange_weak(seen, len,
                                            std::memory_order_relaxed)) {
      }
    });
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      wrong += marks[i].load(std::memory_order_relaxed) != 1;
    }
    CHECK_EQ(wrong, 0u);
    CHECK(min_len.load() >= 1);
  }
  {  // grain floor: every chunk but the tail is at least `grain` long
    constexpr std::size_t kRows = 1000;
    constexpr std::size_t kGrain = 30;
    std::vector<std::atomic<std::uint8_t>> marks(kRows);
    std::atomic<std::size_t> short_chunks{0};
    eng.parallel_for(kRows, kGrain, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        marks[i].fetch_add(1, std::memory_order_relaxed);
      }
      if (end - begin < kGrain) {
        short_chunks.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      wrong += marks[i].load(std::memory_order_relaxed) != 1;
    }
    CHECK_EQ(wrong, 0u);
    CHECK(short_chunks.load() <= 1);  // only the tail may run short
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {2, 4, 8})) {
    if (threads < 2) continue;  // the pool needs at least one worker
    pool_large_run(threads);
  }
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 2, 4, 8})) {
    parallel_for_coverage(threads);
    parallel_for_edges(threads);
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

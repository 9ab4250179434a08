// Engine chunking and dispatch regression tests: the parallel_for chunk
// count is derived from the range size and the worker count with the
// explicit kMaxChunksPerSweep ceiling, every index of [0, n) is
// visited exactly once at any chunk/thread geometry and across
// thousands of back-to-back sweeps on the one shared cursor, a sweep
// issued from inside a chunk runs inline, a null engine makes one
// inline call, and the per-thread chunk counter matches the sweeps'
// chunk counts.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/obs.h"
#include "test_main.h"

using namespace v6h;

namespace {

std::size_t chunk_cap(unsigned threads) {
  const std::size_t per_worker = static_cast<std::size_t>(threads) * 8;
  return std::min(per_worker, engine::kMaxChunksPerSweep);
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
  engine::parallel_for(&eng, kRows, 1, [&](std::size_t begin, std::size_t end) {
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
  CHECK(calls.load() >= 1);
  CHECK(calls.load() <= chunk_cap(threads));

  // The registry saw the same sweep the callback counted: one
  // parallel_for, `calls` chunks (multi-thread engines only; a serial
  // engine runs the sweep inline and dispatches nothing).
  observability.registry().merge_day();
  const obs::Registry& registry = observability.registry();
  const obs::CoreMetrics& core = observability.core();
  if (eng.threads() > 1) {
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
    engine::parallel_for(&eng, 0, 4, [&](std::size_t, std::size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    CHECK_EQ(calls.load(), 0u);
  }
  {  // n <= grain: exactly one inline call covering everything
    std::atomic<std::size_t> calls{0};
    engine::parallel_for(&eng, 7, 16, [&](std::size_t begin, std::size_t end) {
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
    engine::parallel_for(&eng, kRows, 0, [&](std::size_t begin, std::size_t end) {
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
    engine::parallel_for(&eng, kRows, kGrain, [&](std::size_t begin, std::size_t end) {
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

// Thousands of tiny sweeps back to back, from one chunk up to the
// threads x 8 ceiling and a little past it, so workers are often
// still leaving one sweep's claim loop when the next one starts. Each
// index must be visited exactly once per sweep: a cursor reset that a
// leftover worker races would run a chunk of the new sweep with the
// old sweep's geometry, or drop one, and then that sweep never
// returns, so a watchdog turns a hang into a failure.
void back_to_back_sweeps(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (finished.load()) return;
    std::fprintf(stderr, "FAIL %s:%d: a sweep never returned\n", __FILE__, __LINE__);
    std::_Exit(1);
  });
  const std::size_t cap = chunk_cap(threads);
  constexpr std::size_t kSweeps = 20000;
  constexpr std::size_t kMaxGrain = 5;
  std::vector<std::atomic<std::uint32_t>> marks((cap + 4) * kMaxGrain);
  std::size_t wrong = 0;
  std::size_t bad_ranges = 0;
  std::size_t over_cap = 0;
  for (std::size_t s = 0; s < kSweeps; ++s) {
    const std::size_t grain = 1 + (s / 7) % kMaxGrain;
    const std::size_t n = (1 + s % (cap + 4)) * grain - s % grain;
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> bad{0};
    engine::parallel_for(&eng, n, grain, [&](std::size_t begin, std::size_t end) {
      calls.fetch_add(1, std::memory_order_relaxed);
      if (begin >= end || end > n) {
        bad.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (std::size_t i = begin; i < end; ++i) {
        marks[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      wrong += marks[i].exchange(0, std::memory_order_relaxed) != 1;
    }
    bad_ranges += bad.load();
    over_cap += calls.load() > cap;
  }
  finished.store(true);
  watchdog.join();
  CHECK_EQ(wrong, 0u);
  CHECK_EQ(bad_ranges, 0u);
  CHECK_EQ(over_cap, 0u);
}

// A parallel_for issued from inside a chunk runs inline, as one
// fn(0, m) call on the thread that issued it, whether that thread is
// the caller or a worker (threads >= 2). Each side's chunk waits
// (bounded) until the other side has started one, so both sides are
// sure to issue one.
void nested_sweeps_run_inline(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_started{false};
  std::atomic<bool> worker_started{false};
  std::atomic<std::size_t> caller_nested{0};
  std::atomic<std::size_t> worker_nested{0};
  std::atomic<std::size_t> not_inline{0};
  constexpr std::size_t kInner = 100;
  engine::parallel_for(&eng, chunk_cap(threads), 1, [&](std::size_t, std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    const bool on_caller = self == caller;
    (on_caller ? caller_started : worker_started).store(true);
    std::size_t inner_calls = 0;
    engine::parallel_for(&eng, kInner, 1, [&](std::size_t begin, std::size_t end) {
      ++inner_calls;
      if (begin != 0 || end != kInner || std::this_thread::get_id() != self) {
        not_inline.fetch_add(1, std::memory_order_relaxed);
      }
    });
    if (inner_calls != 1) not_inline.fetch_add(1, std::memory_order_relaxed);
    (on_caller ? caller_nested : worker_nested).fetch_add(1);
    const std::atomic<bool>& other = on_caller ? worker_started : caller_started;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!other.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  CHECK_EQ(not_inline.load(), 0u);
  CHECK(caller_nested.load() >= 1);
  CHECK(worker_nested.load() >= 1);
}

// A null engine runs every sweep inline: no call for n == 0, and
// exactly one fn(0, n) call otherwise, at any grain.
void null_engine_runs_inline() {
  std::size_t calls = 0;
  engine::parallel_for(nullptr, 0, 4, [&](std::size_t, std::size_t) { ++calls; });
  CHECK_EQ(calls, 0u);
  for (const std::size_t grain : {0u, 1u, 16u, 5000u}) {
    calls = 0;
    std::size_t begin_seen = 1;
    std::size_t end_seen = 0;
    engine::parallel_for(nullptr, 1000, grain, [&](std::size_t begin, std::size_t end) {
      ++calls;
      begin_seen = begin;
      end_seen = end;
    });
    CHECK_EQ(calls, 1u);
    CHECK_EQ(begin_seen, 0u);
    CHECK_EQ(end_seen, 1000u);
  }
}

// Every chunk a sweep publishes is run, and counted in
// engine.pool_tasks by the thread that ran it: after a run of sweeps
// the day's merged pool_tasks equals its merged chunks.
void pool_tasks_equal_chunks(unsigned threads) {
  engine::EngineOptions engine_options;
  engine_options.threads = threads;
  engine::Engine eng(engine_options);
  obs::ObsOptions obs_options;
  obs::Observability observability(obs_options, eng.threads());
  eng.set_observability(&observability);
  std::atomic<std::size_t> calls{0};
  for (std::size_t s = 0; s < 200; ++s) {
    engine::parallel_for(&eng, 1 + s * 7, 1 + s % 3, [&](std::size_t, std::size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  }
  eng.set_observability(nullptr);
  observability.registry().merge_day();
  const obs::Registry& registry = observability.registry();
  const obs::CoreMetrics& core = observability.core();
  CHECK_EQ(registry.merged(core.pool_tasks), registry.merged(core.chunks));
  if (threads > 1) {
    // Sweep 0 (n = 1) runs inline; every other one is dispatched.
    CHECK_EQ(registry.merged(core.parallel_fors), 199u);
    CHECK_EQ(registry.merged(core.chunks), calls.load() - 1);
  } else {
    CHECK_EQ(registry.merged(core.chunks), 0u);
  }
}

}  // namespace

int main(int argc, char** argv) {
  null_engine_runs_inline();
  for (const unsigned threads :
       v6h::test::thread_counts_from_cli(argc, argv, {1, 2, 4, 8})) {
    parallel_for_coverage(threads);
    parallel_for_edges(threads);
    back_to_back_sweeps(threads);
    if (threads > 1) nested_sweeps_run_inline(threads);
    pool_tasks_equal_chunks(threads);
  }
  std::printf("%d checks, %d failures\n", v6h::test::checks,
              v6h::test::failures);
  return v6h::test::failures == 0 ? 0 : 1;
}

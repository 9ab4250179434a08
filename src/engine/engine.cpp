#include "engine/engine.h"

#include "obs/obs.h"

namespace v6h::engine {

Engine::Engine(EngineOptions options) {
  threads_ = options.threads != 0
                 ? options.threads
                 : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads_ - 1);
  try {
    for (unsigned lane = 1; lane < threads_; ++lane) {
      workers_.emplace_back([this, lane] { worker_loop(lane); });
    }
  } catch (...) {
    stop_workers();  // join the workers already started
    throw;
  }
}

Engine::~Engine() { stop_workers(); }

void Engine::stop_workers() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void Engine::run(std::size_t n, std::size_t grain, Chunk fn) {
  // Chunk count derives from the range size (never split below grain)
  // and the worker count (~8 chunks per worker balances claim traffic
  // against tail imbalance), clamped by the explicit
  // kMaxChunksPerSweep ceiling.
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t by_grain = (n + grain - 1) / grain;
  const std::size_t target = std::min(
      static_cast<std::size_t>(threads_) * 8, kMaxChunksPerSweep);
  const std::size_t want = std::min(by_grain, target);
  const std::size_t chunk = std::max(grain, (n + want - 1) / want);
  const Sweep sweep{&fn, n, chunk, (n + chunk - 1) / chunk, obs_};
  if (obs_ != nullptr) {
    auto& registry = obs_->registry();
    const obs::CoreMetrics& core = obs_->core();
    registry.add(core.parallel_fors, 1);
    registry.add(core.chunks, sweep.chunks);
  }
  obs::StageSpan span(obs_, obs::Stage::kPoolRun);
  inside_ = true;
  {
    util::MutexLock lock(mu_);
    while (claiming_ != 0) done_.wait(mu_);
    next_.store(0, std::memory_order_relaxed);
    remaining_.store(sweep.chunks, std::memory_order_relaxed);
    sweep_ = sweep;
    ++epoch_;
  }
  wake_.notify_all();
  drain(sweep);
  {
    util::MutexLock lock(mu_);
    while (remaining_.load(std::memory_order_acquire) != 0) done_.wait(mu_);
  }
  inside_ = false;
}

void Engine::drain(const Sweep& sweep) {
  for (;;) {
    const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= sweep.chunks) return;
    if (sweep.obs != nullptr) {
      // Lane-local relaxed store (each thread owns its lane); counted
      // before the chunk's fetch_sub, so the caller's barrier orders
      // it before the day's merge.
      sweep.obs->registry().add(sweep.obs->core().pool_tasks, 1);
    }
    const std::size_t begin = c * sweep.chunk;
    (*sweep.fn)(begin, std::min(sweep.n, begin + sweep.chunk));
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk: take mu_ so the notify cannot slip between the
      // caller's predicate test and its wait.
      util::MutexLock lock(mu_);
      done_.notify_all();
    }
  }
}

void Engine::worker_loop(unsigned lane) {
  // Claim this thread's observability lane (the caller keeps the
  // default lane 0): metric updates and trace tids key off it, and the
  // one-writer-per-lane invariant of obs::Registry depends on lanes
  // being distinct per worker.
  obs::set_lane(lane);
  std::uint64_t seen = 0;
  mu_.lock();
  for (;;) {
    while (!stop_ && epoch_ == seen) wake_.wait(mu_);
    if (stop_) break;
    seen = epoch_;
    const Sweep sweep = sweep_;
    ++claiming_;
    mu_.unlock();
    drain(sweep);
    mu_.lock();
    if (--claiming_ == 0) done_.notify_all();
  }
  mu_.unlock();
}

}  // namespace v6h::engine

#pragma once

// Compile-time locking discipline: thin wrappers over Clang's
// capability analysis (-Wthread-safety) so the concurrent core's
// invariants — which data each mutex guards, which functions require
// which locks — are machine-checked on every Clang build instead of
// only exercised by the TSan CI job. Under any other compiler every
// macro expands to nothing and the annotated code is byte-identical
// to its unannotated form.
//
// The analysis only follows types that declare themselves
// capabilities, and std::mutex does not, so this header also provides
// the annotated primitives the engine uses in place of the std types:
//
//   util::Mutex      — std::mutex declared as a capability
//   util::MutexLock  — scoped lock (std::lock_guard with annotations)
//   util::CondVar    — condition variable waiting on a util::Mutex
//
// Annotation policy for the repo:
//  - every field written under a mutex is V6H_GUARDED_BY(that mutex);
//  - atomics are NOT guarded — each std::atomic field instead carries
//    a comment stating the invariant that makes its memory order
//    sufficient (see NetworkSim::probes_sent_, Engine::next_);
//  - structures shared with engine workers without a lock (the
//    resolved-target columns, ScanFrame's mask column, TargetStore)
//    document their phase discipline — who writes, when, and what
//    synchronizes the hand-off — next to the data they describe;
//  - lock-free shared state (the obs layer: Registry lanes, the
//    TraceRing, the day-telemetry record) carries V6H_LANE_OWNED /
//    V6H_PUBLISHED_BY markers naming its single writer and the
//    happens-before edge that publishes its writes (below).

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define V6H_TS_ATTR(x) __attribute__((x))
#else
#define V6H_TS_ATTR(x)  // no-op outside Clang
#endif

// Type declarations.
#define V6H_CAPABILITY(x) V6H_TS_ATTR(capability(x))
#define V6H_SCOPED_CAPABILITY V6H_TS_ATTR(scoped_lockable)

// Data annotations.
#define V6H_GUARDED_BY(x) V6H_TS_ATTR(guarded_by(x))
#define V6H_PT_GUARDED_BY(x) V6H_TS_ATTR(pt_guarded_by(x))

// Function annotations.
#define V6H_REQUIRES(...) V6H_TS_ATTR(requires_capability(__VA_ARGS__))
#define V6H_ACQUIRE(...) V6H_TS_ATTR(acquire_capability(__VA_ARGS__))
#define V6H_RELEASE(...) V6H_TS_ATTR(release_capability(__VA_ARGS__))
#define V6H_TRY_ACQUIRE(...) V6H_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define V6H_EXCLUDES(...) V6H_TS_ATTR(locks_excluded(__VA_ARGS__))
#define V6H_RETURN_CAPABILITY(x) V6H_TS_ATTR(lock_returned(x))
#define V6H_NO_THREAD_SAFETY_ANALYSIS V6H_TS_ATTR(no_thread_safety_analysis)

// Lock-free publication markers. Clang's capability analysis tracks
// mutexes, not happens-before edges, so the obs layer's discipline —
// one writer per lane, pool-barrier publication, acquire/release
// pairs — has nothing for V6H_GUARDED_BY to name. These two expand to
// nothing under EVERY compiler; they make the unguarded-but-safe
// fields carry their safety argument in a form that is greppable next
// to the checked annotations, and they mark exactly the places a
// future capability (or a TSan suppression) would attach to. On a
// field, name the discipline precisely: who the single writer is, and
// which edge readers must cross before the value is theirs.
//   V6H_LANE_OWNED(owner)   exactly one thread writes: the named lane
//                           or role. Concurrent readers are a bug
//                           unless a V6H_PUBLISHED_BY edge covers the
//                           read.
//   V6H_PUBLISHED_BY(edge)  writes become visible to readers only via
//                           the named synchronization edge (a pool
//                           return barrier, a release/acquire pair on
//                           a named atomic).
// Documentation only: both expand to nothing under every compiler.
#define V6H_LANE_OWNED(...)
#define V6H_PUBLISHED_BY(...)

namespace v6h::util {

/// std::mutex as a declared capability. Same layout and cost; the
/// lock/unlock wrappers are the annotation points the analysis tracks.
class V6H_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() V6H_ACQUIRE() { mu_.lock(); }
  void unlock() V6H_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped holder of one Mutex (std::lock_guard with annotations).
class V6H_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) V6H_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() V6H_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over util::Mutex. wait() requires the caller to
/// hold the mutex (checked under Clang) and is a bare wait — callers
/// keep the standard `while (!condition) cv.wait(mu);` loop in their
/// own body, where the analysis can see the guarded reads happen with
/// the lock held (a predicate lambda would be analyzed out of
/// context).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// Spurious wakeups happen; always re-test the condition.
  void wait(Mutex& mu) V6H_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the mutex
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace v6h::util

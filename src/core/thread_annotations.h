// Clang Thread Safety Analysis annotations and the annotated mutex types
// every concurrent subsystem uses.
//
// The locking discipline of the serving stack (sharded queues, RCU-style
// model hot swap, ingest folding, continual learning) used to live in header
// comments and TSan runs; this header moves it into the compiler. Each
// mutex-guarded field declares its guard with DEEPREST_GUARDED_BY, each
// lock-requiring function declares DEEPREST_REQUIRES, and a Clang build with
// -Wthread-safety (see the `lint` CMake preset, which promotes the analysis
// to -Werror=thread-safety-analysis) rejects any access that does not hold
// the declared capability. Under GCC every macro expands to nothing, so
// tier-1 builds are unaffected.
//
// Project rules enforced on top of the compiler analysis by the project
// analyzer, tools/analyze (deeprest_analyze; ctest label `lint`):
//   * every std::mutex / deeprest::Mutex member must have a matching
//     DEEPREST_GUARDED_BY field in the same class (rule
//     mutex-needs-guarded-by) — a mutex that guards nothing is either dead
//     or, worse, believed to guard something it does not;
//   * mutexes declare their lock-hierarchy position (DEEPREST_ACQUIRED_AFTER
//     or `deeprest-lint: lock-level(...)`; rule lock-graph-position), nested
//     acquisitions must follow it (lock-graph-order, lock-graph-cycle), and
//     no cv wait, sleep or slab I/O runs under a lock (blocking-under-lock);
//   * fields shared across threads without a guard must be std::atomic
//     (convention, checked by review + TSan; the analysis treats atomics as
//     unguarded by design).
//
// Lock hierarchy (documented here, asserted per-class with
// DEEPREST_ACQUIRED_BEFORE/AFTER where Clang supports it — see DESIGN.md
// "Concurrency invariants & lock hierarchy" for the full map):
//   * EstimationService: at most ONE Shard::mu is held at a time (enqueue,
//     steal and drain sweeps all lock shard-by-shard); the global depth
//     counter `queued_` is an atomic acquired-before nothing — it is CAS-
//     reserved before any shard lock and released under one, never wrapped
//     in a lock of its own.
//   * IngestPipeline: fold_mu_ -> Shard::mu and fold_mu_ -> rejected_mu_
//     (Fold drains shards and the rejection tallies while holding fold_mu_).
//     Producers take a single Shard::mu or rejected_mu_ and nothing else.
//   * ThreadPool (src/eval/parallel.cc): the single State::mu, no nesting.
#ifndef SRC_CORE_THREAD_ANNOTATIONS_H_
#define SRC_CORE_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros. Active only when the compiler is Clang with the
// thread-safety attributes available; no-ops elsewhere (GCC, MSVC).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define DEEPREST_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DEEPREST_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

// Marks a class as a lockable capability ("mutex").
#define DEEPREST_CAPABILITY(name) DEEPREST_THREAD_ANNOTATION_(capability(name))

// Marks an RAII class that acquires a capability in its constructor and
// releases it in its destructor.
#define DEEPREST_SCOPED_CAPABILITY DEEPREST_THREAD_ANNOTATION_(scoped_lockable)

// Declares that a field may only be read or written while holding `x`.
#define DEEPREST_GUARDED_BY(x) DEEPREST_THREAD_ANNOTATION_(guarded_by(x))

// Declares that the data POINTED TO by a pointer field is guarded by `x`.
#define DEEPREST_PT_GUARDED_BY(x) DEEPREST_THREAD_ANNOTATION_(pt_guarded_by(x))

// Declares that a function must be called with `...` held (and does not
// acquire or release it).
#define DEEPREST_REQUIRES(...) \
  DEEPREST_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// Declares that a function acquires / releases the capability.
#define DEEPREST_ACQUIRE(...) \
  DEEPREST_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DEEPREST_RELEASE(...) \
  DEEPREST_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DEEPREST_TRY_ACQUIRE(...) \
  DEEPREST_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Declares that a function must NOT be called with `...` held (deadlock
// prevention: the function acquires it internally).
#define DEEPREST_EXCLUDES(...) \
  DEEPREST_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Lock-ordering declarations (checked by newer Clangs, documentation
// otherwise).
#define DEEPREST_ACQUIRED_BEFORE(...) \
  DEEPREST_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define DEEPREST_ACQUIRED_AFTER(...) \
  DEEPREST_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// The function returns a reference to the named capability.
#define DEEPREST_RETURN_CAPABILITY(x) \
  DEEPREST_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch: the function's body is exempt from the analysis. Use only
// with a comment explaining why the access is safe.
#define DEEPREST_NO_THREAD_SAFETY_ANALYSIS \
  DEEPREST_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace deeprest {

// ---------------------------------------------------------------------------
// Annotated mutex. A thin std::mutex wrapper carrying the `capability`
// attribute so Clang can track which functions hold it. Same cost as a bare
// std::mutex; std::condition_variable still works through MutexLock below.
// ---------------------------------------------------------------------------
class DEEPREST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DEEPREST_ACQUIRE() { mu_.lock(); }
  void Unlock() DEEPREST_RELEASE() { mu_.unlock(); }
  bool TryLock() DEEPREST_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // For MutexLock's condition-variable plumbing only; never lock it directly
  // around guarded state or the analysis loses track of the capability.
  std::mutex& native() { return mu_; }

 private:
  // The one intentionally unannotated mutex in the tree: it IS the
  // capability, it guards nothing of its own.
  std::mutex mu_;  // deeprest-lint: allow(mutex-needs-guarded-by)
};

// ---------------------------------------------------------------------------
// RAII lock for Mutex (the project's std::lock_guard / std::unique_lock).
// Scoped capability: constructing it acquires the mutex for the enclosing
// scope in the eyes of the analysis; Unlock() releases early.
//
// Condition-variable waits go through Wait/WaitFor/WaitUntil so the wait's
// internal unlock/relock stays inside the wrapper: the guarded-state
// invariant "lock held whenever the code observes state" is preserved, which
// is exactly the model the analysis assumes.
//
// NOTE for predicates: Clang's analysis does not propagate capabilities into
// lambda bodies, so condition-variable predicates over guarded state must be
// written as explicit `while (!cond) lock.Wait(cv);` loops inline in the
// locked scope, not as wait(lock, pred) lambdas.
// ---------------------------------------------------------------------------
class DEEPREST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DEEPREST_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() DEEPREST_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Early release (e.g. to run promise continuations or rethrow outside the
  // critical section). The destructor then releases nothing.
  void Unlock() DEEPREST_RELEASE() { lock_.unlock(); }

  // Blocks until notified. The caller re-checks its condition in a loop.
  void Wait(std::condition_variable& cv) { cv.wait(lock_); }

  // Timed waits; return true when the wait TIMED OUT (caller stops waiting).
  template <typename Rep, typename Period>
  bool WaitFor(std::condition_variable& cv,
               const std::chrono::duration<Rep, Period>& d) {
    return cv.wait_for(lock_, d) == std::cv_status::timeout;
  }
  template <typename Clock, typename Duration>
  bool WaitUntil(std::condition_variable& cv,
                 const std::chrono::time_point<Clock, Duration>& t) {
    return cv.wait_until(lock_, t) == std::cv_status::timeout;
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace deeprest

#endif  // SRC_CORE_THREAD_ANNOTATIONS_H_

// Process-wide liveness registry for the serving stack's long-lived actors.
//
// Every background thread that is supposed to keep making progress — the
// estimation workers, the ContinualLearner, the watchdog itself — registers
// a named component and then stamps a heartbeat at the top of each work
// cycle. The registry turns those stamps into
// staleness-tagged status: a component whose last heartbeat is older than
// its declared stall threshold is kSuspect, which is what the Watchdog
// (supervisor.h) keys recovery off.
//
// Heartbeats are the hot path (one per worker sweep, one per ingest batch),
// so they are a single lock-free atomic store through a HealthHandle that
// points at registration-time storage; the registry mutex is only taken to
// register components and to snapshot.
//
// Time is injectable: SteadyHealthClock for production, ManualHealthClock
// for deterministic tests, and SkewedHealthClock layered on either to model
// the `clock_skew` chaos fault (a supervisor reading a skewed clock sees
// phantom staleness: it opens incidents and calls restart callbacks that
// find every worker alive and so restart nothing).
//
// Lock hierarchy (DESIGN.md "Concurrency invariants & lock hierarchy"):
// HealthRegistry::mu_ is a leaf — nothing is acquired under it, and
// heartbeat stamping never takes it.
#ifndef SRC_SERVE_HEALTH_H_
#define SRC_SERVE_HEALTH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/thread_annotations.h"

namespace deeprest {

// Monotone time source for staleness math. Implementations must be safe to
// call from any thread.
class HealthClock {
 public:
  virtual ~HealthClock() = default;
  virtual uint64_t NowMicros() = 0;
};

class SteadyHealthClock : public HealthClock {
 public:
  uint64_t NowMicros() override {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }
};

// Hand-advanced clock for deterministic supervision tests.
class ManualHealthClock : public HealthClock {
 public:
  explicit ManualHealthClock(uint64_t start_us = 1) : now_us_(start_us) {}
  void Advance(uint64_t us) { now_us_.fetch_add(us, std::memory_order_acq_rel); }
  void Set(uint64_t us) { now_us_.store(us, std::memory_order_release); }
  uint64_t NowMicros() override { return now_us_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> now_us_;
};

// Adds a settable offset to a base clock — the `clock_skew` chaos fault.
// Positive skew makes every component look staler than it is.
class SkewedHealthClock : public HealthClock {
 public:
  explicit SkewedHealthClock(HealthClock& base) : base_(&base) {}
  void SetSkewMicros(int64_t skew_us) { skew_us_.store(skew_us, std::memory_order_release); }
  int64_t skew_micros() const { return skew_us_.load(std::memory_order_acquire); }
  uint64_t NowMicros() override {
    const int64_t now = static_cast<int64_t>(base_->NowMicros()) +
                        skew_us_.load(std::memory_order_acquire);
    return now > 0 ? static_cast<uint64_t>(now) : 0;
  }

 private:
  HealthClock* base_;
  std::atomic<int64_t> skew_us_{0};
};

enum class HealthStatus {
  kHealthy = 0,   // heartbeat within the stall threshold
  kSuspect,       // heartbeat older than the stall threshold — watchdog food
  kRestarting,    // supervisor marked it mid-recovery
  kStopped,       // deliberately stopped; exempt from watchdog scans
};

const char* HealthStatusName(HealthStatus status);

// One component's view at snapshot time.
struct ComponentHealth {
  std::string name;
  HealthStatus status = HealthStatus::kHealthy;
  uint64_t last_heartbeat_us = 0;
  uint64_t staleness_us = 0;  // now - last_heartbeat (0 when stopped)
  uint64_t stall_threshold_us = 0;
  uint64_t heartbeats = 0;
};

class HealthRegistry;

// Lock-free stamping handle returned by Register(). Copyable; valid for the
// registry's lifetime. A default-constructed handle is inert (Heartbeat is a
// no-op), so components can carry one unconditionally and only wire it up
// when supervision is enabled.
class HealthHandle {
 public:
  HealthHandle() = default;

  bool valid() const { return component_ != nullptr; }
  size_t id() const { return id_; }

  // Stamps "alive now". Also clears a kStopped/kRestarting mark: a restarted
  // component's first beat returns it to watchdog coverage.
  void Heartbeat();
  // Declares a clean shutdown so the watchdog does not chase a corpse.
  void MarkStopped();

 private:
  friend class HealthRegistry;
  struct Component;
  HealthHandle(Component* component, HealthClock* clock, size_t id)
      : component_(component), clock_(clock), id_(id) {}

  Component* component_ = nullptr;
  HealthClock* clock_ = nullptr;
  size_t id_ = 0;
};

class HealthRegistry {
 public:
  // `clock` must outlive the registry; nullptr selects the built-in steady
  // clock.
  explicit HealthRegistry(HealthClock* clock = nullptr);
  ~HealthRegistry();

  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  // Registers a component and returns its stamping handle, pre-stamped with
  // the current time so a freshly registered component is healthy. The
  // stall threshold is the staleness past which the component counts as
  // stuck. Registering an existing name returns the existing component's
  // handle (thresholds are not updated).
  HealthHandle Register(const std::string& name, uint64_t stall_threshold_us);

  // Id-addressed variants of the handle operations (the supervisor works in
  // ids).
  void MarkRestarting(size_t id);
  void MarkStopped(size_t id);

  ComponentHealth Health(size_t id) const;
  std::vector<ComponentHealth> Snapshot() const;
  size_t size() const;
  uint64_t NowMicros() const { return clock_->NowMicros(); }
  HealthClock* clock() const { return clock_; }

 private:
  ComponentHealth HealthLocked(size_t id, uint64_t now_us) const DEEPREST_REQUIRES(mu_);

  HealthClock* clock_;
  SteadyHealthClock default_clock_;
  // Leaf lock: guards the component table's growth only. The per-component
  // stamps are atomics written through HealthHandle without any lock (the
  // unique_ptr indirection keeps them address-stable across push_back).
  mutable Mutex mu_;  // deeprest-lint: lock-level(leaf)
  std::vector<std::unique_ptr<HealthHandle::Component>> components_ DEEPREST_GUARDED_BY(mu_);
};

}  // namespace deeprest

#endif  // SRC_SERVE_HEALTH_H_

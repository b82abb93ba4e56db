// Watchdog-driven recovery for the serving stack's supervised components.
//
// The HealthRegistry (health.h) says who is alive; this layer decides what
// to do about the ones that are not. A Supervisor holds, per watched
// component, an optional restart callback and the open incident, if any.
// Each ScanOnce() pass:
//
//   * opens an incident the first time a component's staleness crosses its
//     stall threshold (recording when it went quiet — the MTTR clock starts
//     at the FAULT, not at detection);
//   * calls the component's restart callback on every scan while it stays
//     stale, so a worker that dies at any point of an incident is revived on
//     the next scan;
//   * closes the incident as recovered on the first scan that sees the
//     component heartbeat again.
//
// Restart semantics are honest about what C++ threads allow: a CRASHED
// worker (thread exited) can be respawned, so its restart callback returns
// true and recovery is fast; a STALLED worker cannot be killed, so its
// callback returns false (EstimationService::RestartWorker takes one
// uncontended lock to find that out) and the incident closes only when the
// stall ends and heartbeats resume. Meanwhile the steal sweep
// (estimation_service.h) serves the wedged worker's queue. A component
// watched without a callback (the continual learner) only has its
// incidents recorded.
//
// The Watchdog is the thread that turns scans into a loop: it heartbeats
// itself into the same registry it scans (a stuck watchdog is visible in
// the snapshot like any other corpse) and calls Supervisor::ScanOnce every
// poll interval. Tests drive ScanOnce directly with a ManualHealthClock for
// exact, sleep-free transitions.
//
// Lock hierarchy (DESIGN.md "Concurrency invariants & lock hierarchy"):
//   Supervisor::scan_mu_ -> Supervisor::mu_ -> HealthRegistry::mu_.
// Restart callbacks run with only scan_mu_ held, so they may freely take
// component locks (EstimationService::stop_mu_, ...); nothing in this module
// is acquired inside them.
#ifndef SRC_SERVE_SUPERVISOR_H_
#define SRC_SERVE_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/serve/health.h"

namespace deeprest {

// One detected-fault-to-recovery episode of one component.
struct RecoveryIncident {
  std::string component;
  uint64_t quiet_since_us = 0;   // last heartbeat before the fault
  uint64_t detected_at_us = 0;   // scan that crossed the stall threshold
  uint64_t recovered_at_us = 0;  // 0 while the incident is open

  bool recovered() const { return recovered_at_us != 0; }
  // Detection latency: fault (heartbeats stop) -> watchdog notices.
  uint64_t detect_us() const { return detected_at_us - quiet_since_us; }
  // Full mean-time-to-recovery clock: fault -> service restored.
  uint64_t mttr_us() const {
    return recovered() ? recovered_at_us - quiet_since_us : 0;
  }
};

struct SupervisorCounters {
  uint64_t incidents_opened = 0;
  uint64_t incidents_recovered = 0;
  uint64_t restarts_succeeded = 0;  // restart callbacks that returned true
};

class Supervisor {
 public:
  // The registry must outlive the supervisor.
  explicit Supervisor(HealthRegistry& registry);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Puts a registered component (by registry id) under supervision.
  // `restart`, if set, is called on every scan that finds the component
  // stale, and reports whether it revived it (a stalled-but-alive thread
  // cannot be restarted -> false).
  void Watch(size_t id, std::function<bool()> restart = nullptr);

  // One deterministic scan over every watched component (what the Watchdog
  // thread runs). Returns the number of restart callbacks called.
  size_t ScanOnce();

  SupervisorCounters counters() const;
  std::vector<RecoveryIncident> Incidents() const;

 private:
  struct Watched {
    size_t id = 0;
    std::function<bool()> restart;
    bool unhealthy = false;  // an incident is open
    size_t incident = 0;     // index into incidents_ while unhealthy
  };

  HealthRegistry& registry_;

  // Serializes whole scans (state pass + callbacks + result pass) so two
  // ScanOnce callers cannot double-fire a restart between each other's
  // passes. Guards no field of its own; the scan state lives under mu_.
  Mutex scan_mu_;  // deeprest-lint: allow(mutex-needs-guarded-by)
  // Guards the supervision tables. Held only for state passes — restart
  // callbacks run outside it (they take component locks).
  // Acquired after scan_mu_, before HealthRegistry::mu_.
  mutable Mutex mu_ DEEPREST_ACQUIRED_AFTER(scan_mu_);
  std::vector<Watched> watched_ DEEPREST_GUARDED_BY(mu_);
  std::vector<RecoveryIncident> incidents_ DEEPREST_GUARDED_BY(mu_);
  SupervisorCounters counters_ DEEPREST_GUARDED_BY(mu_);
};

struct WatchdogConfig {
  std::chrono::milliseconds poll_interval{5};
  // The watchdog's own registry entry: a wedged watchdog shows up kSuspect
  // in snapshots even though nothing restarts it (top of the tree).
  std::string name = "watchdog";
  uint64_t self_stall_threshold_us = 1000000;
};

class Watchdog {
 public:
  // Registry and supervisor must outlive the watchdog.
  Watchdog(Supervisor& supervisor, HealthRegistry& registry,
           const WatchdogConfig& config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Start();
  void Stop();

  uint64_t scans() const { return scans_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  Supervisor& supervisor_;
  WatchdogConfig config_;
  HealthHandle self_;

  // Start/Stop/destruction only (same pattern as ContinualLearner: the loop
  // thread never takes this mutex, so Stop can join while holding it).
  Mutex lifecycle_mu_;  // deeprest-lint: lock-level(leaf)
  std::thread thread_ DEEPREST_GUARDED_BY(lifecycle_mu_);

  std::atomic<uint64_t> scans_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace deeprest

#endif  // SRC_SERVE_SUPERVISOR_H_

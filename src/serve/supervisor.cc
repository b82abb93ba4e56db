#include "src/serve/supervisor.h"

#include <utility>

namespace deeprest {

Supervisor::Supervisor(HealthRegistry& registry) : registry_(registry) {}

void Supervisor::Watch(size_t id, std::function<bool()> restart) {
  MutexLock lock(mu_);
  Watched w;
  w.id = id;
  w.restart = std::move(restart);
  watched_.push_back(std::move(w));
}

size_t Supervisor::ScanOnce() {
  MutexLock scan_lock(scan_mu_);
  // Pass 1 (under mu_): read health, open and close incidents, and COLLECT
  // the callbacks of the stale components. Pass 2 (outside mu_): run them.
  // Restarts take component locks (EstimationService::stop_mu_), which must
  // never nest under the supervision tables.
  std::vector<std::function<bool()>> restarts;
  {
    MutexLock lock(mu_);
    const uint64_t now = registry_.NowMicros();
    for (auto& w : watched_) {
      const ComponentHealth health = registry_.Health(w.id);
      if (health.status == HealthStatus::kStopped) {
        // Deliberate shutdown mid-incident: stop chasing it. The incident
        // stays on record unrecovered.
        w.unhealthy = false;
        continue;
      }
      if (health.staleness_us <= health.stall_threshold_us) {
        if (w.unhealthy) {
          // Heartbeats resumed: incident closed.
          incidents_[w.incident].recovered_at_us = now;
          ++counters_.incidents_recovered;
          w.unhealthy = false;
        }
        continue;
      }
      if (!w.unhealthy) {
        // New incident. The MTTR clock starts at the last heartbeat — the
        // moment the component actually went quiet — not at detection.
        w.unhealthy = true;
        w.incident = incidents_.size();
        RecoveryIncident incident;
        incident.component = health.name;
        incident.quiet_since_us = health.last_heartbeat_us;
        incident.detected_at_us = now;
        incidents_.push_back(std::move(incident));
        ++counters_.incidents_opened;
      }
      if (w.restart) {
        registry_.MarkRestarting(w.id);
        restarts.push_back(w.restart);
      }
    }
  }

  for (auto& restart : restarts) {
    if (restart()) {
      MutexLock lock(mu_);
      ++counters_.restarts_succeeded;
    }
  }
  return restarts.size();
}

SupervisorCounters Supervisor::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

std::vector<RecoveryIncident> Supervisor::Incidents() const {
  MutexLock lock(mu_);
  return incidents_;
}

Watchdog::Watchdog(Supervisor& supervisor, HealthRegistry& registry,
                   const WatchdogConfig& config)
    : supervisor_(supervisor), config_(config),
      self_(registry.Register(config.name, config.self_stall_threshold_us)) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  MutexLock lock(lifecycle_mu_);
  if (thread_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  // Same shape as ContinualLearner::Stop: the flag flips under lifecycle_mu_
  // so a racing Start cannot clear it between the store and the join.
  MutexLock lock(lifecycle_mu_);
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  self_.MarkStopped();
}

void Watchdog::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    self_.Heartbeat();
    supervisor_.ScanOnce();
    scans_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(config_.poll_interval);
  }
}

}  // namespace deeprest

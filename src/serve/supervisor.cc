#include "src/serve/supervisor.h"

#include <algorithm>
#include <utility>

namespace deeprest {

Supervisor::Supervisor(HealthRegistry& registry, const SupervisorConfig& config)
    : registry_(registry), config_(config) {}

void Supervisor::Watch(size_t id, std::function<bool()> restart, size_t restart_budget) {
  MutexLock lock(mu_);
  Watched w;
  w.id = id;
  w.restart = std::move(restart);
  w.budget = restart_budget > 0 ? restart_budget : config_.restart_budget;
  watched_.push_back(std::move(w));
}

size_t Supervisor::ScanOnce() {
  MutexLock scan_lock(scan_mu_);
  // Pass 1 (under mu_): read health, advance per-incident state machines,
  // and COLLECT the callbacks that are due. Pass 2 (outside mu_): run them.
  // Restarts take component locks (EstimationService::stop_mu_, learner
  // lifecycle_mu_), which must never nest under the supervision tables.
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
        w.escalated = false;
        w.attempts = 0;
        continue;
      }
      const bool fresh = health.staleness_us <= health.stall_threshold_us;
      if (!w.unhealthy && !fresh) {
        // New incident. The MTTR clock starts at the last heartbeat — the
        // moment the component actually went quiet — not at detection.
        w.unhealthy = true;
        w.escalated = false;
        w.attempts = 0;
        w.backoff = std::chrono::duration_cast<std::chrono::microseconds>(config_.base_backoff);
        w.next_attempt_us = now;  // first attempt on this very scan
        w.incident = incidents_.size();
        RecoveryIncident incident;
        incident.component = health.name;
        incident.quiet_since_us = health.last_heartbeat_us;
        incident.detected_at_us = now;
        incidents_.push_back(std::move(incident));
        ++counters_.incidents_opened;
      }
      if (!w.unhealthy) {
        continue;
      }
      if (fresh) {
        // Heartbeats resumed: incident closed, budget restored.
        incidents_[w.incident].recovered_at_us = now;
        ++counters_.incidents_recovered;
        w.unhealthy = false;
        w.escalated = false;
        w.attempts = 0;
        continue;
      }
      if (w.escalated) {
        continue;  // budget burned: no more attempts until it recovers
      }
      if (w.attempts >= w.budget) {
        w.escalated = true;
        incidents_[w.incident].escalated = true;
        ++counters_.escalations;
        continue;
      }
      if (now >= w.next_attempt_us && w.restart) {
        ++w.attempts;
        incidents_[w.incident].restart_attempts = w.attempts;
        ++counters_.restarts_attempted;
        registry_.MarkRestarting(w.id);
        restarts.push_back(w.restart);
        w.next_attempt_us =
            now + static_cast<uint64_t>(w.backoff.count());
        w.backoff = std::min(
            w.backoff * 2,
            std::chrono::duration_cast<std::chrono::microseconds>(config_.max_backoff));
      }
    }
  }

  const size_t attempted = restarts.size();
  for (auto& restart : restarts) {
    const bool ok = restart();
    MutexLock lock(mu_);
    if (ok) {
      ++counters_.restarts_succeeded;
    } else {
      ++counters_.restarts_failed;
    }
  }
  return attempted;
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

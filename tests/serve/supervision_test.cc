// Self-healing supervision layer: HealthRegistry staleness accounting, the
// learner's validation gate, Supervisor incident tracking (driven
// deterministically with a ManualHealthClock), the Watchdog thread, and
// worker recovery through the real EstimationService: a crashed worker
// restarts and serves bit-exact, a wedged worker's queue is served by its
// sibling's steal sweep, a long stall restarts nothing and recovers on the
// next heartbeat, and a worker that dies after a long wedge restarts on the
// next scan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/serve/health.h"
#include "src/serve/supervisor.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

using testutil::ExpectSameEstimates;
using testutil::MakeSetup;
using testutil::TinySetup;
using testutil::TrainModel;

// ---------------------------------------------------------------------------
// HealthRegistry
// ---------------------------------------------------------------------------

TEST(HealthRegistryTest, StalenessDrivesStatus) {
  ManualHealthClock clock(1000);
  HealthRegistry registry(&clock);
  HealthHandle handle = registry.Register("worker", 500);
  ASSERT_TRUE(handle.valid());

  // Freshly registered components are pre-stamped healthy.
  ComponentHealth health = registry.Health(handle.id());
  EXPECT_EQ(health.status, HealthStatus::kHealthy);
  EXPECT_EQ(health.last_heartbeat_us, 1000u);
  EXPECT_EQ(health.staleness_us, 0u);

  clock.Advance(400);
  EXPECT_EQ(registry.Health(handle.id()).status, HealthStatus::kHealthy);
  clock.Advance(200);  // staleness 600 > threshold 500
  health = registry.Health(handle.id());
  EXPECT_EQ(health.status, HealthStatus::kSuspect);
  EXPECT_EQ(health.staleness_us, 600u);

  handle.Heartbeat();
  health = registry.Health(handle.id());
  EXPECT_EQ(health.status, HealthStatus::kHealthy);
  EXPECT_EQ(health.staleness_us, 0u);
  EXPECT_EQ(health.heartbeats, 1u);
}

TEST(HealthRegistryTest, MarksAndStoppedExemption) {
  ManualHealthClock clock;
  HealthRegistry registry(&clock);
  HealthHandle handle = registry.Register("learner", 100);

  registry.MarkRestarting(handle.id());
  EXPECT_EQ(registry.Health(handle.id()).status, HealthStatus::kRestarting);
  // A heartbeat clears the mark: the restarted component is back under
  // coverage.
  handle.Heartbeat();
  EXPECT_EQ(registry.Health(handle.id()).status, HealthStatus::kHealthy);

  handle.MarkStopped();
  clock.Advance(1000000);  // arbitrarily stale, but deliberately stopped
  ComponentHealth health = registry.Health(handle.id());
  EXPECT_EQ(health.status, HealthStatus::kStopped);
  EXPECT_EQ(health.staleness_us, 0u);
}

TEST(HealthRegistryTest, RegisterIsIdempotentByName) {
  HealthRegistry registry;
  HealthHandle a = registry.Register("dup", 100);
  HealthHandle b = registry.Register("dup", 999);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(registry.size(), 1u);
  // Thresholds are not updated by re-registration.
  EXPECT_EQ(registry.Health(a.id()).stall_threshold_us, 100u);
}

TEST(HealthRegistryTest, SnapshotCoversEveryComponent) {
  HealthRegistry registry;
  registry.Register("a", 1);
  registry.Register("b", 2);
  const std::vector<ComponentHealth> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "a");
  EXPECT_EQ(snapshot[1].name, "b");
}

TEST(HealthClockTest, SkewedClockShiftsAndClampsAtZero) {
  ManualHealthClock base(100);
  SkewedHealthClock skewed(base);
  EXPECT_EQ(skewed.NowMicros(), 100u);
  skewed.SetSkewMicros(250);
  EXPECT_EQ(skewed.NowMicros(), 350u);
  skewed.SetSkewMicros(-500);  // would go negative: clamps
  EXPECT_EQ(skewed.NowMicros(), 0u);
}

TEST(HealthStatusTest, NamesAreDistinctAndKnown) {
  const HealthStatus all[] = {HealthStatus::kHealthy, HealthStatus::kSuspect,
                              HealthStatus::kRestarting, HealthStatus::kStopped};
  std::vector<std::string> names;
  for (HealthStatus status : all) {
    const std::string name = HealthStatusName(status);
    EXPECT_NE(name, "unknown");
    for (const std::string& seen : names) {
      EXPECT_NE(name, seen);
    }
    names.push_back(name);
  }
}

// ---------------------------------------------------------------------------
// ContinualLearner validation gate
// ---------------------------------------------------------------------------

TEST(ValidationGateTest, ValidationRegressedMatchesLegacyGate) {
  // The learner rejects a candidate only past factor x the base error.
  EXPECT_FALSE(ValidationRegressed(1.0, 1.0, 1.5));
  EXPECT_FALSE(ValidationRegressed(1.0, 1.5, 1.5));  // at the line
  EXPECT_TRUE(ValidationRegressed(1.0, 1.51, 1.5));
  EXPECT_FALSE(ValidationRegressed(0.0, 0.0, 1.5));  // epsilon guard
  EXPECT_FALSE(ValidationRegressed(1.0, 9.0, 0.0));  // disabled
}

// ---------------------------------------------------------------------------
// Supervisor (deterministic, ManualHealthClock-driven)
// ---------------------------------------------------------------------------

struct SupervisedHarness {
  ManualHealthClock clock{1000};
  HealthRegistry registry{&clock};
  Supervisor supervisor{registry};
  HealthHandle handle = registry.Register("victim", 1000);
  std::atomic<int> restarts{0};
  bool restart_result = true;

  SupervisedHarness() {
    supervisor.Watch(handle.id(), [this] {
      restarts.fetch_add(1);
      return restart_result;
    });
  }
};

TEST(SupervisorTest, HealthyComponentNeverTriggersAnything) {
  SupervisedHarness h;
  for (int i = 0; i < 5; ++i) {
    h.clock.Advance(500);
    h.handle.Heartbeat();
    EXPECT_EQ(h.supervisor.ScanOnce(), 0u);
  }
  EXPECT_EQ(h.restarts.load(), 0);
  EXPECT_EQ(h.supervisor.counters().incidents_opened, 0u);
  EXPECT_TRUE(h.supervisor.Incidents().empty());
}

TEST(SupervisorTest, StallOpensIncidentAndMttrClockStartsAtTheFault) {
  SupervisedHarness h;
  // Heartbeats stop at t=1000 (registration stamp). Staleness crosses the
  // 1000us threshold at t=2001.
  h.clock.Set(2500);
  EXPECT_EQ(h.supervisor.ScanOnce(), 1u);  // detection scan restarts immediately
  EXPECT_EQ(h.restarts.load(), 1);

  auto incidents = h.supervisor.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].component, "victim");
  EXPECT_EQ(incidents[0].quiet_since_us, 1000u);  // the FAULT, not detection
  EXPECT_EQ(incidents[0].detected_at_us, 2500u);
  EXPECT_EQ(incidents[0].detect_us(), 1500u);
  EXPECT_FALSE(incidents[0].recovered());

  // Recovery: heartbeats resume, the next scan closes the incident.
  h.clock.Set(4000);
  h.handle.Heartbeat();
  EXPECT_EQ(h.supervisor.ScanOnce(), 0u);
  incidents = h.supervisor.Incidents();
  ASSERT_TRUE(incidents[0].recovered());
  EXPECT_EQ(incidents[0].recovered_at_us, 4000u);
  EXPECT_EQ(incidents[0].mttr_us(), 3000u);  // fault at 1000 -> recovered at 4000
  const SupervisorCounters counters = h.supervisor.counters();
  EXPECT_EQ(counters.incidents_opened, 1u);
  EXPECT_EQ(counters.incidents_recovered, 1u);
}

// A stale component's callback runs on every scan until it heartbeats
// again: no scan gives up on it, however many callbacks failed before.
TEST(SupervisorTest, StaleComponentGetsItsCallbackOnEveryScan) {
  SupervisedHarness h;
  h.restart_result = false;  // a stall cannot be restarted
  for (uint64_t t = 5000; t <= 105000; t += 10000) {
    h.clock.Set(t);
    EXPECT_EQ(h.supervisor.ScanOnce(), 1u);
  }
  EXPECT_EQ(h.restarts.load(), 11);
  SupervisorCounters counters = h.supervisor.counters();
  EXPECT_EQ(counters.incidents_opened, 1u);
  EXPECT_EQ(counters.restarts_succeeded, 0u);

  h.clock.Set(200000);
  h.handle.Heartbeat();
  EXPECT_EQ(h.supervisor.ScanOnce(), 0u);
  EXPECT_EQ(h.restarts.load(), 11);
  const auto incidents = h.supervisor.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].recovered_at_us, 200000u);
  counters = h.supervisor.counters();
  EXPECT_EQ(counters.incidents_recovered, 1u);
}

TEST(SupervisorTest, ComponentWatchedWithoutCallbackOnlyRecordsIncidents) {
  ManualHealthClock clock(1000);
  HealthRegistry registry(&clock);
  Supervisor supervisor(registry);
  HealthHandle handle = registry.Register("learner", 1000);
  supervisor.Watch(handle.id());
  clock.Set(5000);
  EXPECT_EQ(supervisor.ScanOnce(), 0u);
  EXPECT_EQ(registry.Health(handle.id()).status, HealthStatus::kSuspect);
  clock.Set(6000);
  handle.Heartbeat();
  EXPECT_EQ(supervisor.ScanOnce(), 0u);
  const SupervisorCounters counters = supervisor.counters();
  EXPECT_EQ(counters.incidents_opened, 1u);
  EXPECT_EQ(counters.incidents_recovered, 1u);
  EXPECT_EQ(counters.restarts_succeeded, 0u);
}

TEST(SupervisorTest, StoppedComponentsAreExemptFromScans) {
  SupervisedHarness h;
  h.handle.MarkStopped();
  h.clock.Set(10000000);
  EXPECT_EQ(h.supervisor.ScanOnce(), 0u);
  EXPECT_EQ(h.supervisor.counters().incidents_opened, 0u);
}

TEST(WatchdogTest, ThreadScansAndRecoversARealStall) {
  // Real steady clock: a component that stops heartbeating with a 2ms
  // threshold, a watchdog polling every 1ms, and a restart callback that
  // "revives" it by heartbeating on its behalf.
  HealthRegistry registry;
  Supervisor supervisor(registry);
  HealthHandle handle = registry.Register("sleeper", 2000);
  supervisor.Watch(handle.id(), [&handle] {
    handle.Heartbeat();
    return true;
  });
  Watchdog watchdog(supervisor, registry, {.poll_interval = std::chrono::milliseconds(1)});
  watchdog.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.counters().incidents_recovered == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  watchdog.Stop();
  EXPECT_GT(watchdog.scans(), 0u);
  const SupervisorCounters counters = supervisor.counters();
  EXPECT_GE(counters.incidents_opened, 1u);
  EXPECT_GE(counters.incidents_recovered, 1u);
  // The watchdog itself is a registered, heartbeating component.
  bool watchdog_registered = false;
  for (const ComponentHealth& health : registry.Snapshot()) {
    watchdog_registered |= health.name == "watchdog";
  }
  EXPECT_TRUE(watchdog_registered);
}

// ---------------------------------------------------------------------------
// EstimationService integration: crash, restart, wedge
// ---------------------------------------------------------------------------

// Set-up shared by the manual-clock wedge scenarios below: a trained model
// published behind a two-worker service whose health clock is manual, so the
// scans are driven by hand and every transition is exact.
struct WedgeSetup {
  TinySetup s = MakeSetup();
  std::unique_ptr<DeepRestEstimator> model = TrainModel(s);
  std::vector<std::vector<float>> features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  EstimateMap oracle = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline{model->features(), {.shards = 2}};
  ManualHealthClock clock{1000};
  HealthRegistry health{&clock};

  WedgeSetup() { registry.Publish(std::move(model)); }

  EstimationServiceConfig Config(std::function<WorkerFault(size_t)> hook) {
    EstimationServiceConfig config;
    config.workers = 2;
    config.health = &health;
    config.worker_stall_threshold_us = 100000;
    config.worker_fault_hook = std::move(hook);
    return config;
  }
};

// Releases a wedge on scope exit, so an assertion that returns early does not
// leave the service's destructor joining a worker that never returns. Declare
// it after the service: it is destroyed first.
struct ReleaseOnExit {
  std::atomic<bool>& release;
  ~ReleaseOnExit() { release.store(true); }
};

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}


TEST(ServiceSupervisionTest, CrashedWorkerRestartsAndServesBitExact) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const EstimateMap oracle = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  HealthRegistry health;
  std::atomic<bool> crash_pending{true};
  EstimationServiceConfig config;
  config.workers = 2;
  config.health = &health;
  config.worker_fault_hook = [&crash_pending](size_t worker) {
    if (worker == 0 && crash_pending.exchange(false)) {
      return WorkerFault::kCrash;
    }
    return WorkerFault::kNone;
  };
  EstimationService service(registry, pipeline, config);

  // Both workers registered under supervision names.
  EXPECT_EQ(health.Register("estimation-worker-0", 1).id(),
            health.Register("estimation-worker-0", 1).id());
  ASSERT_GE(health.size(), 2u);

  // Wait for the crash to land.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!service.WorkerExited(0) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.WorkerExited(0));
  EXPECT_EQ(service.Counters().worker_crashes, 1u);

  // The surviving worker keeps the service correct even before recovery
  // (work stealing covers the dead worker's shard).
  auto before = service.SubmitFeatures(features).get();
  ASSERT_EQ(before.status, RequestStatus::kOk);
  ExpectSameEstimates(before.estimates, oracle);

  // Restart: the worker comes back and the service stays bit-exact.
  EXPECT_TRUE(service.RestartWorker(0));
  EXPECT_FALSE(service.WorkerExited(0));
  EXPECT_FALSE(service.RestartWorker(0));  // running workers cannot restart
  EXPECT_EQ(service.Counters().worker_restarts, 1u);
  auto after = service.SubmitFeatures(features).get();
  ASSERT_EQ(after.status, RequestStatus::kOk);
  ExpectSameEstimates(after.estimates, oracle);
}

// A wedged worker is alive, so the watchdog cannot restart it; the steal
// sweep is what serves the requests queued in its shard. Worker 0 blocks in
// the chaos hook at the top of its first sweep, before it touches its
// shard, and stays there until released. Submissions round-robin from shard
// 0, so half of them queue behind the wedge, and worker 1 must steal them.
TEST(ServiceSupervisionTest, StealServesRequestsQueuedBehindAWedgedWorker) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const EstimateMap oracle = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  EstimationServiceConfig config;
  config.workers = 2;
  config.worker_fault_hook = [&wedged, &release](size_t worker) {
    if (worker != 0 || release.load()) {
      return WorkerFault::kNone;
    }
    wedged.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return WorkerFault::kStall;
  };
  EstimationService service(registry, pipeline, config);
  ReleaseOnExit release_on_exit{release};
  ASSERT_TRUE(WaitFor([&wedged] { return wedged.load(); }));

  constexpr size_t kRequests = 8;
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitFeatures(features));
  }
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "request " << i << " is stranded behind the wedged worker";
    const auto result = futures[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    ExpectSameEstimates(result.estimates, oracle);
  }
  // Worker 0 records its stall only when the hook returns, so every request
  // above was served while it was still wedged.
  ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.worker_stalls, 0u);
  EXPECT_EQ(counters.requests_served, kRequests);

  release.store(true);
  service.Stop();
  counters = service.Counters();
  EXPECT_EQ(counters.worker_stalls, 1u);
  EXPECT_EQ(counters.requests_submitted, kRequests);
  EXPECT_EQ(counters.requests_submitted,
            counters.requests_served + counters.requests_shed + counters.requests_expired +
                counters.requests_rejected);
}

TEST(ServiceSupervisionTest, WatchdogAutoRestartsACrashedWorker) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const EstimateMap oracle = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  HealthRegistry health;
  std::atomic<bool> crash_pending{true};
  EstimationServiceConfig config;
  config.workers = 2;
  config.health = &health;
  config.worker_stall_threshold_us = 100000;  // 100ms (> the 64ms idle sweep)
  config.worker_fault_hook = [&crash_pending](size_t worker) {
    if (worker == 0 && crash_pending.exchange(false)) {
      return WorkerFault::kCrash;
    }
    return WorkerFault::kNone;
  };
  EstimationService service(registry, pipeline, config);

  Supervisor supervisor(health);
  const size_t worker0 = health.Register("estimation-worker-0", 1).id();
  supervisor.Watch(worker0, [&service] { return service.RestartWorker(0); });
  Watchdog watchdog(supervisor, health,
                    {.poll_interval = std::chrono::milliseconds(2)});
  watchdog.Start();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (supervisor.counters().incidents_recovered == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watchdog.Stop();

  const SupervisorCounters counters = supervisor.counters();
  ASSERT_GE(counters.incidents_recovered, 1u) << "watchdog never recovered the worker";
  EXPECT_GE(counters.restarts_succeeded, 1u);
  EXPECT_FALSE(service.WorkerExited(0));

  const auto incidents = supervisor.Incidents();
  ASSERT_FALSE(incidents.empty());
  EXPECT_TRUE(incidents[0].recovered());
  EXPECT_GT(incidents[0].mttr_us(), 0u);

  // Full service, bit-exact, after watchdog-led recovery.
  auto result = service.SubmitFeatures(features).get();
  ASSERT_EQ(result.status, RequestStatus::kOk);
  ExpectSameEstimates(result.estimates, oracle);
}

// A permanent stall: worker 0 stays wedged in its fault hook, so every
// restart callback finds a live thread and restarts nothing, while the
// sibling's steal sweep keeps serving. When the wedge ends and worker 0
// heartbeats again, the next scan closes the incident as recovered.
TEST(ServiceSupervisionTest, PermanentStallRestartsNothingAndRecoversOnTheNextHeartbeat) {
  WedgeSetup w;
  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  const EstimationServiceConfig config = w.Config([&wedged, &release](size_t worker) {
    if (worker != 0 || release.load()) {
      return WorkerFault::kNone;
    }
    wedged.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return WorkerFault::kStall;
  });
  EstimationService service(w.registry, w.pipeline, config);
  ReleaseOnExit release_on_exit{release};
  ASSERT_TRUE(WaitFor([&wedged] { return wedged.load(); }));

  Supervisor supervisor(w.health);
  const size_t worker0 = w.health.Register("estimation-worker-0", 1).id();
  std::atomic<int> restart_calls{0};
  supervisor.Watch(worker0, [&service, &restart_calls] {
    restart_calls.fetch_add(1);
    return service.RestartWorker(0);
  });

  // Worker 0 last heartbeat at t = 1000 us, at the top of the sweep it is
  // wedged in. Every scan while it stays stale calls the callback, and every
  // call finds a live thread.
  for (uint64_t t = 1000000; t <= 10000000; t += 1000000) {
    w.clock.Set(t);
    EXPECT_EQ(supervisor.ScanOnce(), 1u);
  }
  SupervisorCounters counters = supervisor.counters();
  EXPECT_EQ(restart_calls.load(), 10);
  EXPECT_EQ(counters.restarts_succeeded, 0u);
  EXPECT_EQ(counters.incidents_opened, 1u);
  std::vector<RecoveryIncident> incidents = supervisor.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].component, "estimation-worker-0");
  EXPECT_FALSE(incidents[0].recovered());

  // The service keeps serving, bit-exact, through the sibling's steal sweep.
  constexpr size_t kRequests = 8;
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitFeatures(w.features));
  }
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "request " << i << " is stranded behind the wedged worker";
    const auto result = futures[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    ExpectSameEstimates(result.estimates, w.oracle);
  }
  EXPECT_EQ(service.Counters().worker_stalls, 0u);  // worker 0 is still wedged
  EXPECT_EQ(service.Counters().worker_restarts, 0u);

  // The wedge ends; worker 0's next sweep heartbeats at the manual clock's
  // current time, and the next scan closes the incident.
  release.store(true);
  ASSERT_TRUE(WaitFor([&] {
    return w.health.Health(worker0).staleness_us <= config.worker_stall_threshold_us;
  }));
  EXPECT_EQ(supervisor.ScanOnce(), 0u);
  incidents = supervisor.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_TRUE(incidents[0].recovered());
  EXPECT_EQ(incidents[0].recovered_at_us, 10000000u);
  counters = supervisor.counters();
  EXPECT_EQ(counters.incidents_recovered, 1u);
  EXPECT_EQ(restart_calls.load(), 10);
  EXPECT_EQ(service.Counters().worker_restarts, 0u);
}

// A worker wedged through many scans that then dies, with no heartbeat in
// between, is restarted by the first scan after it exits: however many
// callbacks the wedge made fail, the scans never stop calling it.
TEST(ServiceSupervisionTest, WorkerThatDiesAfterALongWedgeRestartsOnTheNextScan) {
  WedgeSetup w;
  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  std::atomic<bool> crashed{false};
  const EstimationServiceConfig config =
      w.Config([&wedged, &release, &crashed](size_t worker) {
        if (worker != 0 || crashed.load()) {
          return WorkerFault::kNone;
        }
        wedged.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        crashed.store(true);
        return WorkerFault::kCrash;
      });
  EstimationService service(w.registry, w.pipeline, config);
  ReleaseOnExit release_on_exit{release};
  ASSERT_TRUE(WaitFor([&wedged] { return wedged.load(); }));

  Supervisor supervisor(w.health);
  const size_t worker0 = w.health.Register("estimation-worker-0", 1).id();
  supervisor.Watch(worker0, [&service] { return service.RestartWorker(0); });

  // Five scans a second apart while worker 0 is wedged (it last heartbeat
  // at t = 1000 us): each one's callback finds a live thread.
  for (uint64_t t = 1000000; t <= 5000000; t += 1000000) {
    w.clock.Set(t);
    supervisor.ScanOnce();
  }
  EXPECT_EQ(supervisor.counters().restarts_succeeded, 0u);
  EXPECT_FALSE(service.WorkerExited(0));

  // The wedge ends in a crash: the worker exits without a heartbeat.
  release.store(true);
  ASSERT_TRUE(WaitFor([&service] { return service.WorkerExited(0); }));
  EXPECT_GT(w.health.Health(worker0).staleness_us, config.worker_stall_threshold_us);

  // The first scan after the exit restarts the worker, whose revival
  // heartbeat lands at the manual clock's current time.
  w.clock.Set(6000000);
  supervisor.ScanOnce();
  EXPECT_EQ(supervisor.counters().restarts_succeeded, 1u);
  EXPECT_EQ(service.Counters().worker_crashes, 1u);
  EXPECT_EQ(service.Counters().worker_restarts, 1u);
  EXPECT_FALSE(service.WorkerExited(0));

  // The next scan closes the incident.
  EXPECT_EQ(supervisor.ScanOnce(), 0u);
  const std::vector<RecoveryIncident> incidents = supervisor.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_TRUE(incidents[0].recovered());
  EXPECT_EQ(incidents[0].recovered_at_us, 6000000u);
  EXPECT_EQ(supervisor.counters().incidents_recovered, 1u);

  // The revived worker serves bit-exact.
  const auto result = service.SubmitFeatures(w.features).get();
  ASSERT_EQ(result.status, RequestStatus::kOk);
  ExpectSameEstimates(result.estimates, w.oracle);
}

// ---------------------------------------------------------------------------
// ContinualLearner: alloc-fail chaos + supervision wiring
// ---------------------------------------------------------------------------

TEST(LearnerSupervisionTest, AllocFailSkipsRefreshWithoutConsumingWindows) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 1});
  registry.Publish(std::move(model));
  testutil::IngestRange(pipeline, s, 0, s.total());

  std::atomic<bool> alloc_fail{true};
  HealthRegistry health;
  ContinualLearnerConfig config;
  config.min_new_windows = 8;
  config.epochs = 1;
  config.health = &health;
  config.alloc_fail_hook = [&alloc_fail] { return alloc_fail.load(); };
  ContinualLearner learner(registry, pipeline, s.learn_windows, config);

  EXPECT_EQ(learner.RefreshOnce(), 0u);
  EXPECT_EQ(learner.alloc_failures(), 1u);
  EXPECT_EQ(learner.trained_through(), s.learn_windows);  // windows NOT consumed

  // Allocation recovers: the same stretch now trains and publishes.
  alloc_fail.store(false);
  EXPECT_GT(learner.RefreshOnce(), 0u);
  EXPECT_EQ(learner.refreshes_published(), 1u);
  EXPECT_GT(learner.trained_through(), s.learn_windows);

  // Supervision wiring: the learner registered itself.
  bool registered = false;
  for (const ComponentHealth& h : health.Snapshot()) {
    registered |= h.name == "continual-learner";
  }
  EXPECT_TRUE(registered);
}

}  // namespace
}  // namespace deeprest

// Self-healing scorecard (robustness extension): MTTR, availability, and
// post-recovery correctness of the serving stack under scripted chaos
// schedules, with and without the supervision layer.
//
// Each schedule (worker_stall, worker_crash, mixed, clock_skew) runs twice
// over the same deterministic fault timeline:
//
//   baseline    2 estimation workers, no health registry, no watchdog — the
//               pre-supervision stack. A crashed worker stays dead for the
//               rest of the run.
//   supervised  the same service wired into a HealthRegistry, scanned by a
//               Watchdog-driven Supervisor that tries to restart each stale
//               worker on every scan (only an exited worker restarts).
//
// In both, an idle worker's steal sweep serves the queue of a wedged one.
// The driver advances a logical window every window_len of wall time and
// submits a fixed batch of deadline-carrying estimate requests per window;
// the chaos schedule is keyed off that same window counter through the
// workers' fault hook (crash = thread exits, stall = the hook blocks for the
// scheduled magnitude) and the health clock (clock_skew = the registry's
// SkewedHealthClock jumps ahead by the scheduled microseconds, as in
// `deeprest serve`). Scoring:
//
//   availability       fraction of requests resolving kOk within their
//                      deadline, measured from the first scheduled fault
//                      window to the end of the run (faults like a crash
//                      have effects that long outlive their start window)
//   MTTR               Supervisor incident clocks: fault (last heartbeat)
//                      -> recovery (heartbeats resume), per incident
//   bit-exactness      every kOk result — including everything served
//                      across restarts — must equal the unfaulted oracle
//                      (model->EstimateFromFeatures on the same features)
//                      bit for bit, plus a post-chaos probe request
//
// Full-mode gates: supervised availability-under-faults strictly beats the
// baseline on the crash-bearing schedules and in the mean; every supervised
// cell records a watchdog-led recovery (>=1 incident recovered, and a
// successful restart where a worker actually died); every recovered
// incident's MTTR is under kMttrBoundUs; zero correctness loss. A stalled
// worker cannot be killed from inside the process, so the stall-only
// schedule demonstrates detection + MTTR measurement (the sibling worker
// and the steal sweep carry availability in both modes) rather than an
// availability gap — that is the honest shape of stall recovery.
//
// The clock_skew schedule has its own gate, because a skew makes live
// workers look stale without harming them: the supervised cell's
// availability and bit-exactness equal the baseline's, no worker is
// restarted, and every incident the skew opens recovers.
// It does not require an incident to open: workers that heartbeat again
// before the watchdog's next scan never look stale.
//
// Flags: --smoke (tiny timeline, structural gates only, for ctest)
//        --out <path> (JSON path; default BENCH_resilience.json)
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/serve/estimation_service.h"
#include "src/serve/supervisor.h"
#include "src/sim/chaos_schedule.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

using namespace deeprest;  // NOLINT(build/namespaces)

namespace {

// Documented MTTR bound (full-mode gate): a crash recovers in roughly the
// stall threshold (100ms) plus a watchdog poll; a scheduled stall's clock
// runs for the stall itself (<=400ms per sweep). 2s covers both with slack
// for loaded machines without hiding a broken watchdog.
constexpr uint64_t kMttrBoundUs = 2000000;

// The same tiny three-component app the serve tests train on (see
// tests/serve/test_app.h; restated here because bench binaries do not link
// gtest): models train in milliseconds, so the bench measures the
// supervision layer, not the estimator.
Application TinyApp() {
  Application app("tiny");
  ComponentSpec frontend;
  frontend.name = "Frontend";
  frontend.cpu_baseline = 2.0;
  app.AddComponent(frontend);
  ComponentSpec worker;
  worker.name = "Worker";
  worker.cpu_baseline = 1.0;
  app.AddComponent(worker);
  ComponentSpec db;
  db.name = "DB";
  db.stateful = true;
  db.cpu_baseline = 1.5;
  db.initial_disk_mb = 100.0;
  db.write_noise_ops = 0.2;
  db.write_noise_kb = 2.0;
  app.AddComponent(db);

  CostTerm cpu_small;
  cpu_small.base = 0.05;
  CostTerm cpu_mid;
  cpu_mid.base = 0.12;
  CostTerm db_read_cpu;
  db_read_cpu.base = 0.10;
  CostTerm db_write_cpu;
  db_write_cpu.base = 0.08;
  CostTerm iops;
  iops.resource = ResourceKind::kWriteIops;
  iops.base = 1.0;
  CostTerm thr;
  thr.resource = ResourceKind::kWriteThroughput;
  thr.base = 1.5;

  ApiEndpoint read;
  read.name = "/read";
  OpNode read_db{"DB", "find", 1.0, "", {db_read_cpu}, {}};
  OpNode read_worker{"Worker", "get", 1.0, "", {cpu_mid}, {read_db}};
  read.root = OpNode{"Frontend", "read", 1.0, "", {cpu_small}, {read_worker}};
  app.AddApi(read);

  ApiEndpoint write;
  write.name = "/write";
  OpNode write_db{"DB", "insert", 1.0, "", {db_write_cpu, iops, thr}, {}};
  OpNode write_worker{"Worker", "put", 1.0, "", {cpu_mid}, {write_db}};
  write.root = OpNode{"Frontend", "write", 1.0, "", {cpu_small}, {write_worker}};
  app.AddApi(write);
  return app;
}

TrafficSeries RandomTraffic(size_t windows, uint64_t seed) {
  TrafficSeries series({"/read", "/write"}, windows);
  Rng rng(seed);
  for (size_t w = 0; w < windows; ++w) {
    series.set_rate(w, 0, rng.Uniform(10.0, 120.0));
    series.set_rate(w, 1, rng.Uniform(5.0, 60.0));
  }
  return series;
}

bool SameEstimates(const EstimateMap& a, const EstimateMap& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, estimate] : a) {
    const auto it = b.find(key);
    if (it == b.end() || estimate.expected != it->second.expected ||
        estimate.lower != it->second.lower || estimate.upper != it->second.upper) {
      return false;
    }
  }
  return true;
}

// Bridges the window-addressed schedule into the service's per-sweep fault
// hook and the health clock. The main thread advances the window on the
// wall-clock timeline; the FaultInjector's own mutex makes the deal queries
// safe from every worker.
struct ChaosDriver {
  explicit ChaosDriver(const ChaosSchedule& schedule) : injector({.seed = 11}, schedule) {}

  void Advance(size_t w) {
    window.store(w, std::memory_order_release);
    clock.SetSkewMicros(static_cast<int64_t>(injector.ClockSkewUs(w)));
  }

  WorkerFault Hook(size_t worker) {
    const size_t w = window.load(std::memory_order_acquire);
    if (injector.TakeCrash(w, static_cast<int>(worker))) {
      return WorkerFault::kCrash;
    }
    double stall_ms = 0.0;
    if (injector.TakeStall(w, static_cast<int>(worker), &stall_ms)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
      return WorkerFault::kStall;
    }
    return WorkerFault::kNone;
  }

  FaultInjector injector;
  std::atomic<size_t> window{0};
  SteadyHealthClock steady_clock;
  SkewedHealthClock clock{steady_clock};
};

struct BenchParams {
  size_t windows = 14;
  size_t per_window = 6;
  std::chrono::milliseconds window_len{300};
  std::chrono::milliseconds timeout{250};
};

struct CellResult {
  // Client-side scoring.
  size_t submitted = 0;
  size_t ok = 0;
  size_t submitted_fault = 0;  // requests submitted at/after the first fault
  size_t ok_fault = 0;
  bool served_bit_exact = true;   // every kOk result matched the oracle
  bool post_recovery_ok = false;  // post-chaos probe served and bit-exact
  // Server-side accounting.
  ServiceCounters service;
  FaultCounters faults;
  // Supervision (supervised mode only).
  SupervisorCounters sup;
  uint64_t mttr_max_us = 0;
  uint64_t mttr_sum_us = 0;
  uint64_t detect_max_us = 0;

  double AvailabilityFault() const {
    return submitted_fault > 0 ? static_cast<double>(ok_fault) / submitted_fault : 1.0;
  }
  double AvailabilityOverall() const {
    return submitted > 0 ? static_cast<double>(ok) / submitted : 1.0;
  }
  bool AccountingHolds() const {
    return service.requests_submitted ==
           service.requests_served + service.requests_shed + service.requests_expired +
               service.requests_rejected;
  }
};

CellResult RunCell(const DeepRestEstimator& model,
                   const std::vector<std::vector<float>>& features, const EstimateMap& oracle,
                   const ChaosSchedule& schedule, bool supervised, const BenchParams& p) {
  CellResult cell;
  ChaosDriver chaos(schedule);
  size_t first_fault = p.windows;
  for (const ChaosEvent& event : schedule.events) {
    first_fault = std::min(first_fault, event.start_window);
  }

  ModelRegistry registry;
  IngestPipeline pipeline(model.features(), {.shards = 2});
  registry.Publish(model.Clone());

  HealthRegistry health(&chaos.clock);
  EstimationServiceConfig config;
  config.workers = 2;
  config.worker_fault_hook = [&chaos](size_t worker) { return chaos.Hook(worker); };
  if (supervised) {
    config.health = &health;
    // Must exceed the workers' 64ms max idle sweep wait, else healthy-idle
    // looks stale; crashes and the scheduled stalls both blow well past it.
    config.worker_stall_threshold_us = 100000;
  }
  EstimationService service(registry, pipeline, config);

  Supervisor supervisor(health);
  Watchdog watchdog(supervisor, health, {});
  if (supervised) {
    for (size_t i = 0; i < config.workers; ++i) {
      const size_t id =
          health.Register("estimation-worker-" + std::to_string(i), 1).id();
      supervisor.Watch(id, [&service, i] { return service.RestartWorker(i); });
    }
    watchdog.Start();
  }

  for (size_t w = 0; w < p.windows; ++w) {
    const auto window_start = std::chrono::steady_clock::now();
    chaos.Advance(w);
    std::vector<std::future<EstimationService::EstimateResult>> futures;
    futures.reserve(p.per_window);
    for (size_t r = 0; r < p.per_window; ++r) {
      futures.push_back(service.SubmitFeatures(features, p.timeout));
    }
    const auto wait_deadline = window_start + p.timeout;
    const bool in_fault = w >= first_fault;
    for (auto& future : futures) {
      ++cell.submitted;
      if (in_fault) {
        ++cell.submitted_fault;
      }
      if (future.wait_until(wait_deadline) != std::future_status::ready) {
        continue;  // deadline missed; resolves later as expired/rejected
      }
      const auto result = future.get();
      if (result.status != RequestStatus::kOk) {
        continue;
      }
      ++cell.ok;
      if (in_fault) {
        ++cell.ok_fault;
      }
      if (!SameEstimates(result.estimates, oracle)) {
        cell.served_bit_exact = false;
      }
    }
    std::this_thread::sleep_until(window_start + p.window_len);
  }

  // Post-chaos probe: every scheduled fault is behind us, so a supervised
  // stack must serve this bit-exactly — the "recovers, and recovers to the
  // SAME answers" gate. The baseline gets the same probe (it documents the
  // outage a dead stack leaves behind) with a shorter leash.
  chaos.Advance(p.windows);
  auto probe = service.SubmitFeatures(features);
  const auto probe_wait = supervised ? std::chrono::seconds(30) : std::chrono::seconds(2);
  if (probe.wait_for(probe_wait) == std::future_status::ready) {
    const auto result = probe.get();
    cell.post_recovery_ok =
        result.status == RequestStatus::kOk && SameEstimates(result.estimates, oracle);
  }

  watchdog.Stop();
  service.Stop();
  cell.service = service.Counters();
  cell.faults = chaos.injector.counters();
  cell.sup = supervisor.counters();
  for (const RecoveryIncident& incident : supervisor.Incidents()) {
    if (!incident.recovered()) {
      continue;
    }
    cell.mttr_max_us = std::max(cell.mttr_max_us, incident.mttr_us());
    cell.mttr_sum_us += incident.mttr_us();
    cell.detect_max_us = std::max(cell.detect_max_us, incident.detect_us());
  }
  return cell;
}

void WriteFaultCounters(std::ofstream& json, const FaultCounters& f, const char* indent) {
  json << indent << "\"faults\": {"
       << "\"traces_in\": " << f.traces_in << ", \"delivered\": " << f.delivered
       << ", \"dropped\": " << f.dropped << ", \"corrupted\": " << f.corrupted
       << ", \"truncated\": " << f.truncated << ", \"delayed\": " << f.delayed
       << ", \"duplicated\": " << f.duplicated << ", \"metrics_in\": " << f.metrics_in
       << ", \"metric_gaps\": " << f.metric_gaps << ", \"worker_stalls\": " << f.worker_stalls
       << ", \"worker_crashes\": " << f.worker_crashes << ", \"clock_skews\": " << f.clock_skews
       << ", \"alloc_fails\": " << f.alloc_fails << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_resilience.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  PrintBenchHeader("self-healing scorecard (extension)",
                   "MTTR / availability / bit-exactness under scripted chaos schedules");

  BenchParams params;
  // Schedules are window-addressed (`kind@start[-end][:target][*magnitude]`);
  // magnitudes are stall milliseconds or skew microseconds. The mixed
  // schedule is the supervision showcase: with worker 0 dead, only a
  // supervised stack still has a healthy sibling when worker 1 wedges. The
  // 250 ms skew is past the workers' 100 ms stall threshold.
  std::vector<std::pair<std::string, std::string>> specs;
  if (smoke) {
    params.windows = 8;
    params.per_window = 3;
    params.window_len = std::chrono::milliseconds(120);
    params.timeout = std::chrono::milliseconds(100);
    specs = {{"worker_stall", "worker_stall@2-5:0*150"},
             {"worker_crash", "worker_crash@2:0;worker_crash@2:1"},
             {"mixed", "worker_crash@2:0;worker_stall@3-5:1*150;worker_crash@6-8:1"},
             {"clock_skew", "clock_skew@3-5*250000"}};
  } else {
    specs = {{"worker_stall", "worker_stall@3-7:0*400"},
             {"worker_crash", "worker_crash@3:0;worker_crash@3:1"},
             {"mixed", "worker_crash@3:0;worker_stall@5-9:1*400;worker_crash@10-12:1"},
             {"clock_skew", "clock_skew@5-7*250000"}};
  }

  // One tiny model, cloned into each cell's registry; the oracle is the
  // unfaulted answer every served request must reproduce bit for bit.
  Application app = TinyApp();
  TraceCollector traces;
  MetricsStore metrics;
  const size_t learn_windows = 96;
  const size_t query_windows = 32;
  Simulator sim(app, {.seed = 1});
  sim.Run(RandomTraffic(learn_windows, 1), 0, &traces, &metrics);
  sim.Run(RandomTraffic(query_windows, 101), learn_windows, &traces, &metrics);
  EstimatorConfig estimator_config;
  estimator_config.hidden_dim = 8;
  estimator_config.epochs = 12;
  estimator_config.bptt_chunk = 24;
  estimator_config.seed = 3;
  auto model = std::make_unique<DeepRestEstimator>(estimator_config);
  std::printf("Training the estimator (%zu learn windows)...\n\n", learn_windows);
  model->Learn(traces, metrics, 0, learn_windows, app.MetricCatalog());
  const auto features =
      model->features().ExtractSeries(traces, learn_windows, learn_windows + query_windows);
  const EstimateMap oracle = model->EstimateFromFeatures(features);

  struct ScheduleRow {
    std::string name;
    std::string spec;
    ChaosSchedule schedule;
    CellResult baseline;
    CellResult supervised;
    bool has_crash = false;
    bool skew_only = true;  // every event is a clock skew: its own gate
  };
  std::vector<ScheduleRow> rows;
  for (const auto& [name, spec] : specs) {
    ScheduleRow row;
    row.name = name;
    row.spec = spec;
    std::string error;
    if (!ParseChaosSchedule(spec, &row.schedule, &error)) {
      std::printf("FATAL: bad schedule %s: %s\n", spec.c_str(), error.c_str());
      return 1;
    }
    for (const ChaosEvent& event : row.schedule.events) {
      row.has_crash = row.has_crash || event.kind == ChaosFaultKind::kWorkerCrash;
      row.skew_only = row.skew_only && event.kind == ChaosFaultKind::kClockSkew;
    }
    std::printf("schedule %-12s  %s\n", name.c_str(), spec.c_str());
    row.baseline = RunCell(*model, features, oracle, row.schedule, false, params);
    row.supervised = RunCell(*model, features, oracle, row.schedule, true, params);
    rows.push_back(std::move(row));
  }
  std::printf("\n");

  std::vector<std::vector<std::string>> table;
  for (const ScheduleRow& row : rows) {
    for (const bool supervised : {false, true}) {
      const CellResult& cell = supervised ? row.supervised : row.baseline;
      table.push_back(
          {row.name, supervised ? "supervised" : "baseline",
           FormatDouble(100.0 * cell.AvailabilityFault(), 1),
           FormatDouble(100.0 * cell.AvailabilityOverall(), 1),
           std::to_string(cell.service.requests_served),
           std::to_string(cell.service.requests_expired),
           std::to_string(cell.service.worker_restarts),
           std::to_string(cell.sup.incidents_recovered),
           supervised ? FormatDouble(cell.mttr_max_us / 1000.0, 0) : "-",
           cell.post_recovery_ok ? "yes" : "no"});
    }
  }
  std::printf("%s\n", RenderTable({"schedule", "mode", "avail@fault %", "avail %", "served",
                                   "expired", "restarts", "recovered", "MTTR max ms",
                                   "post-recovery"},
                                  table)
                          .c_str());

  // Structural gates (smoke and full): every cell completed the timeline,
  // the terminal-state accounting balances, and a fresh supervised stack
  // never degrades or loses bit-exactness while serving.
  bool structure_ok = true;
  for (const ScheduleRow& row : rows) {
    for (const CellResult* cell : {&row.baseline, &row.supervised}) {
      structure_ok = structure_ok && cell->submitted > 0 && cell->submitted_fault > 0 &&
                     cell->AccountingHolds() && cell->served_bit_exact;
    }
  }
  std::printf("structural check (all cells complete, accounting balances, served bit-exact): %s\n",
              structure_ok ? "PASS" : "FAIL");

  // Full-mode gates over the worker-fault schedules. Availability: strict
  // win on every crash-bearing schedule and in the mean (the stall-only
  // schedule ties by design — see the header comment). Recovery:
  // watchdog-led, bit-exact, MTTR bounded. The clock-skew schedule has its
  // own gate (header comment).
  double base_mean = 0.0;
  double sup_mean = 0.0;
  size_t worker_fault_rows = 0;
  bool availability_win = true;
  bool recovery_ok = true;
  bool mttr_ok = true;
  bool skew_ok = true;
  for (const ScheduleRow& row : rows) {
    const CellResult& base = row.baseline;
    const CellResult& sup = row.supervised;
    if (sup.sup.incidents_recovered >= 1) {
      mttr_ok = mttr_ok && sup.mttr_max_us <= kMttrBoundUs;
    }
    if (row.skew_only) {
      skew_ok = skew_ok && sup.AvailabilityFault() == base.AvailabilityFault() &&
                sup.AvailabilityOverall() == base.AvailabilityOverall() &&
                sup.served_bit_exact == base.served_bit_exact &&
                sup.post_recovery_ok == base.post_recovery_ok &&
                sup.service.worker_restarts == 0 &&
                sup.sup.incidents_recovered == sup.sup.incidents_opened;
      continue;
    }
    ++worker_fault_rows;
    base_mean += base.AvailabilityFault();
    sup_mean += sup.AvailabilityFault();
    if (row.has_crash) {
      availability_win = availability_win && sup.AvailabilityFault() > base.AvailabilityFault();
    }
    recovery_ok = recovery_ok && sup.sup.incidents_recovered >= 1 && sup.post_recovery_ok &&
                  (!row.has_crash || sup.sup.restarts_succeeded >= 1);
  }
  base_mean /= static_cast<double>(worker_fault_rows);
  sup_mean /= static_cast<double>(worker_fault_rows);
  availability_win = availability_win && sup_mean > base_mean;
  std::printf("availability under faults: supervised mean %.1f%% vs baseline %.1f%% -> %s\n",
              100.0 * sup_mean, 100.0 * base_mean, availability_win ? "PASS" : "FAIL");
  std::printf("watchdog-led recovery, post-recovery bit-exact: %s\n",
              recovery_ok ? "PASS" : "FAIL");
  std::printf("MTTR within %.0fms bound: %s\n", kMttrBoundUs / 1000.0,
              mttr_ok ? "PASS" : "FAIL");
  std::printf("clock skew matches the baseline, restarts no live worker, every incident "
              "recovers: %s\n\n",
              skew_ok ? "PASS" : "FAIL");

  // Machine-readable scorecard for regression tracking (tools/bench_diff).
  {
    FaultCounters total;
    std::ofstream json(out_path);
    json << "{\n  \"smoke\": " << (smoke ? 1 : 0) << ",\n";
    json << "  \"mttr_bound_us\": " << kMttrBoundUs << ",\n";
    json << "  \"schedules\": {\n";
    size_t si = 0;
    for (const ScheduleRow& row : rows) {
      json << "    \"" << row.name << "\": {\n";
      json << "      \"spec\": \"" << row.spec << "\",\n";
      size_t mi = 0;
      for (const bool supervised : {false, true}) {
        const CellResult& cell = supervised ? row.supervised : row.baseline;
        total.Merge(cell.faults);
        json << "      \"" << (supervised ? "supervised" : "baseline") << "\": {\n";
        json << "        \"availability_during_faults\": "
             << FormatDouble(cell.AvailabilityFault(), 4) << ",\n";
        json << "        \"availability_overall\": "
             << FormatDouble(cell.AvailabilityOverall(), 4) << ",\n";
        json << "        \"requests\": {\"submitted\": " << cell.service.requests_submitted
             << ", \"served\": " << cell.service.requests_served
             << ", \"shed\": " << cell.service.requests_shed
             << ", \"expired\": " << cell.service.requests_expired
             << ", \"rejected\": " << cell.service.requests_rejected << "},\n";
        json << "        \"worker_restarts\": " << cell.service.worker_restarts << ",\n";
        json << "        \"post_recovery_bit_exact\": " << (cell.post_recovery_ok ? 1 : 0)
             << ",\n";
        if (supervised) {
          json << "        \"incidents\": {\"opened\": " << cell.sup.incidents_opened
               << ", \"recovered\": " << cell.sup.incidents_recovered
               << ", \"restarts_succeeded\": " << cell.sup.restarts_succeeded << "},\n";
          json << "        \"mttr_max_us\": " << cell.mttr_max_us
               << ", \"mttr_mean_us\": "
               << (cell.sup.incidents_recovered > 0
                       ? cell.mttr_sum_us / cell.sup.incidents_recovered
                       : 0)
               << ", \"detect_max_us\": " << cell.detect_max_us << ",\n";
        }
        WriteFaultCounters(json, cell.faults, "        ");
        json << "\n      }" << (++mi < 2 ? "," : "") << "\n";
      }
      json << "    }" << (++si < rows.size() ? "," : "") << "\n";
    }
    json << "  },\n";
    WriteFaultCounters(json, total, "  ");
    json << ",\n";
    json << "  \"availability_win\": " << (availability_win ? 1 : 0) << ",\n";
    json << "  \"recovery_ok\": " << (recovery_ok ? 1 : 0) << ",\n";
    json << "  \"mttr_ok\": " << (mttr_ok ? 1 : 0) << ",\n";
    json << "  \"skew_ok\": " << (skew_ok ? 1 : 0) << "\n";
    json << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Smoke timelines are too short for the availability ordering to be
  // trustworthy on a loaded machine; the plumbing gates still hold.
  if (smoke) {
    return structure_ok ? 0 : 1;
  }
  return structure_ok && availability_win && recovery_ok && mttr_ok && skew_ok ? 0 : 1;
}

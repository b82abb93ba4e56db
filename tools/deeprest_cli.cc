// deeprest — command-line front-end to the library.
//
//   deeprest train    --model=FILE [--app=social|hotel] [--days=N] [--wpd=N] [--seed=N]
//       Simulate a production learning phase and train + save a model.
//
//   deeprest estimate --model=FILE [--scale=X] [--shape=two_peak|flat|single_peak]
//                     [--days=N] [--replicas-for=COMPONENT]
//       Load a model, build the described hypothetical traffic, print the
//       per-component provisioning plan (and a replica schedule on request).
//
//   deeprest check    --model=FILE [--attack=ransomware|cryptojacking]
//                     [--target=COMPONENT] [--days=N]
//       Continue the simulation with real traffic (optionally attacked),
//       run the application sanity check, and print alerts.
//
//   deeprest serve   [--app=social|hotel] [--days=N] [--wpd=N] [--seed=N]
//                    [--serve-days=N] [--workers=N] [--batch=N] [--clients=N]
//                    [--refresh-windows=N] [--attack=ransomware|cryptojacking]
//                    [--target=COMPONENT]
//                    [--chaos] [--drop=P] [--dup=P] [--corrupt=P] [--gap=P]
//                    [--chaos-schedule=SPEC] [--supervise=0|1]
//                    [--max-queue=N] [--deadline-ms=N] [--retries=N] [--checkpoint=FILE]
//                    [--memory-budget-mb=N]
//       Online serving demo: train (or load with --model), then stream a
//       simulated live workload through the ingest pipeline while client
//       threads hammer the estimation service and the continual learner
//       hot-swaps refreshed models. Prints the service counters.
//       --chaos routes the telemetry stream through a seeded FaultInjector
//       (10% drop, 10% duplicate, 5% corrupt, 5% metric gaps by default;
//       individual probabilities override). --chaos-schedule replays a
//       scripted fault timeline (`kind@start[-end][:target][*magnitude]`
//       joined by ';' — worker_stall, worker_crash, clock_skew, alloc_fail,
//       plus the stream faults) keyed to the producer's window clock, and
//       turns on supervision by default: every worker and the learner
//       heartbeat into a HealthRegistry scanned by a watchdog-driven
//       Supervisor that records each incident and restarts a crashed worker
//       on the next scan (--supervise=0 opts out, --supervise=1 opts in
//       without a schedule). An idle worker's steal sweep serves the queue
//       of a stalled one. --max-queue bounds the request queue (a request
//       that finds it full is shed at once), --deadline-ms expires
//       stale queued requests, and clients retry non-ok results with
//       exponential backoff + jitter (--retries). --checkpoint enables
//       atomic model checkpoints after every refresh and crash recovery at
//       startup (falls back to FILE.prev if FILE is torn).
//       --memory-budget-mb turns on the tiered per-stream warm-start cache:
//       half the budget caps the hot tier, and the other half pays for the
//       index of a checksummed disk slab that eviction spills to bit for bit
//       (one kColdEntryOverhead-byte record per slot, each slot sized to the
//       serving model's state).
//
//   deeprest autoscale [--app=social|hotel] [--days=N] [--wpd=N] [--seed=N]
//                      [--policy=reactive|predictive|oracle|all]
//                      [--scenario=diurnal|flash_crowd|api_mix_drift|all]
//                      [--scenario-days=N] [--scale=X] [--capacity=CPU]
//                      [--interval=N] [--gap=P]
//       Closed-loop autoscaling evaluation: train (or reuse the cached
//       model), then drive the capacity-model simulator with the chosen
//       scaling policies over the chosen traffic scenarios. Prints the
//       SLO-violation-rate vs provisioned-core-hours table; --gap routes the
//       controller's metric scrapes through a seeded FaultInjector.
//
//   deeprest demo
//       One-command tour: train, estimate, and check on the social network.
//
// The train/estimate/check flow persists only the model file; estimate and
// check re-create the deterministic simulation from the seed recorded in the
// file name side-band (pass the same --app/--days/--wpd/--seed used to train).
// A flag no command reads (a typo, or a retired flag) prints usage and exits 2.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/autoscale/scenario.h"
#include "src/core/planner.h"
#include "src/eval/ascii.h"
#include "src/eval/autoscale_harness.h"
#include "src/eval/harness.h"
#include "src/nn/matrix.h"
#include "src/nn/simd/dispatch.h"
#include "src/serve/checkpoint.h"
#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/serve/supervisor.h"
#include "src/sim/chaos_schedule.h"
#include "src/sim/fault_injector.h"

namespace deeprest {
namespace {

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  size_t GetSize(const std::string& name, size_t fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback
                             : static_cast<size_t>(std::atoll(it->second.c_str()));
  }
};

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "1";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

// Every flag name some command reads. Parse keeps any --name[=value] it is
// given, so main rejects every other name before dispatch: a typo or a
// retired flag fails loudly instead of running the command on defaults.
const char* const kKnownFlags[] = {
    "app", "attack", "batch", "capacity", "chaos", "chaos-schedule", "checkpoint", "clients",
    "corrupt", "days", "deadline-ms", "drop", "dup", "epochs", "gap", "hidden",
    "interval", "isa", "kernel-mode", "max-queue", "memory-budget-mb", "model", "policy",
    "query-days", "refresh-windows", "replicas-for", "retries", "scale", "scenario",
    "scenario-days", "seed", "serve-days", "shape", "supervise", "target", "workers", "wpd",
};

// The first parsed flag no command reads, or "" when every flag is known.
std::string FirstUnknownFlag(const CliArgs& args) {
  for (const auto& [name, value] : args.flags) {
    if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags), name) ==
        std::end(kKnownFlags)) {
      return name;
    }
  }
  return "";
}

HarnessConfig ConfigFrom(const CliArgs& args) {
  HarnessConfig config;
  config.app = args.Get("app", "social") == "hotel" ? HarnessConfig::AppKind::kHotelReservation
                                                    : HarnessConfig::AppKind::kSocialNetwork;
  config.learn_days = args.GetSize("days", 5);
  config.windows_per_day = args.GetSize("wpd", 48);
  config.seed = args.GetSize("seed", 1);
  config.cache_models = false;
  config.estimator.hidden_dim = args.GetSize("hidden", 12);
  config.estimator.epochs = args.GetSize("epochs", 12);
  return config;
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kTiled:
      return "tiled";
    case KernelMode::kReference:
      return "reference";
    case KernelMode::kSimd:
      return "simd";
  }
  return "unknown";
}

// Global kernel backend selection, shared by every command:
// --kernel-mode=tiled|simd|reference picks the GEMM/element-wise backend;
// --isa=auto|scalar|avx2|avx512|neon pins the simd rung (clamped down the
// ladder when unsupported; DEEPREST_SIMD is the env-var spelling).
bool ApplyKernelFlags(const CliArgs& args) {
  const std::string mode = args.Get("kernel-mode", "");
  if (!mode.empty()) {
    if (mode == "tiled") {
      SetKernelMode(KernelMode::kTiled);
    } else if (mode == "simd") {
      SetKernelMode(KernelMode::kSimd);
    } else if (mode == "reference") {
      SetKernelMode(KernelMode::kReference);
    } else {
      std::fprintf(stderr, "bad --kernel-mode=%s (tiled|simd|reference)\n", mode.c_str());
      return false;
    }
  }
  const std::string isa = args.Get("isa", "");
  if (!isa.empty() && !simd::SelectIsaFromSpec(isa)) {
    std::fprintf(stderr, "bad --isa=%s (auto|scalar|avx2|avx512|neon)\n", isa.c_str());
    return false;
  }
  return true;
}

ShapeKind ShapeFrom(const CliArgs& args) {
  const std::string shape = args.Get("shape", "two_peak");
  if (shape == "flat") {
    return ShapeKind::kFlat;
  }
  if (shape == "single_peak") {
    return ShapeKind::kSinglePeak;
  }
  return ShapeKind::kTwoPeak;
}

int CmdTrain(const CliArgs& args) {
  const std::string model_path = args.Get("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "train: --model=FILE is required\n");
    return 2;
  }
  ExperimentHarness harness(ConfigFrom(args));
  std::printf("Simulated %zu learning windows (%zu traces). Training...\n",
              harness.learn_windows(), harness.traces().total_traces());
  DeepRestEstimator& estimator = harness.deeprest();
  if (!estimator.Save(model_path)) {
    std::fprintf(stderr, "train: failed to write %s\n", model_path.c_str());
    return 1;
  }
  std::printf("Trained %zu experts (%zu parameters) in %.1f s -> %s\n",
              estimator.expert_count(), estimator.TotalParameters(),
              estimator.train_seconds(), model_path.c_str());
  return 0;
}

int CmdEstimate(const CliArgs& args) {
  const std::string model_path = args.Get("model", "");
  DeepRestEstimator estimator;
  if (model_path.empty() || !estimator.Load(model_path)) {
    std::fprintf(stderr, "estimate: could not load --model=%s (run `deeprest train` first)\n",
                 model_path.c_str());
    return 2;
  }
  const std::string replicas_for = args.Get("replicas-for", "");
  if (!replicas_for.empty()) {
    const std::vector<MetricKey> resources = estimator.resources();
    if (std::find(resources.begin(), resources.end(),
                  MetricKey{replicas_for, ResourceKind::kCpu}) == resources.end()) {
      std::fprintf(stderr, "estimate: unknown --replicas-for=%s (no CPU estimate in the model)\n",
                   replicas_for.c_str());
      return 2;
    }
  }
  ExperimentHarness harness(ConfigFrom(args));  // deterministic re-simulation
  TrafficSpec spec = harness.QuerySpec(args.GetSize("query-days", 1));
  spec.user_scale = args.GetDouble("scale", 1.0);
  spec.shape = ShapeFrom(args);
  Rng rng(ConfigFrom(args).seed + 41);
  const TrafficSeries traffic = GenerateTraffic(spec, rng);
  std::printf("Estimating %zu windows at %.1fx users, %s shape...\n", traffic.windows(),
              spec.user_scale, ShapeKindName(spec.shape).c_str());
  const EstimateMap estimates = estimator.EstimateFromTraffic(traffic, 7);

  AllocationPlanner planner;
  std::vector<std::vector<std::string>> rows;
  for (const auto& plan : planner.PlanResources(estimates)) {
    if (plan.key.resource != ResourceKind::kCpu || plan.provision < 8.0) {
      continue;
    }
    rows.push_back({plan.key.component, FormatDouble(plan.peak_expected, 1) + "%",
                    FormatDouble(plan.provision, 1) + "%"});
  }
  std::printf("\nCPU provisioning plan (components above 8%%):\n%s\n",
              RenderTable({"component", "peak expected", "provision (p90+10%)"}, rows)
                  .c_str());

  if (!replicas_for.empty()) {
    const ReplicaSchedule schedule = planner.PlanReplicas(estimates, replicas_for);
    std::printf("Replica schedule for %s (peak %zu, %.0f%% replica-windows saved vs static"
                " peak):\n  ",
                replicas_for.c_str(), schedule.peak_replicas,
                100.0 * schedule.savings_fraction);
    for (size_t r : schedule.replicas) {
      std::printf("%zu", r);
    }
    std::printf("\n");
  }
  return 0;
}

int CmdCheck(const CliArgs& args) {
  const std::string model_path = args.Get("model", "");
  DeepRestEstimator estimator;
  if (model_path.empty() || !estimator.Load(model_path)) {
    std::fprintf(stderr, "check: could not load --model=%s (run `deeprest train` first)\n",
                 model_path.c_str());
    return 2;
  }
  HarnessConfig config = ConfigFrom(args);
  ExperimentHarness harness(config);
  const size_t days = args.GetSize("query-days", 2);

  const std::string attack_kind = args.Get("attack", "");
  if (!attack_kind.empty()) {
    AttackSpec attack;
    attack.kind = attack_kind == "ransomware" ? AttackSpec::Kind::kRansomware
                                              : AttackSpec::Kind::kCryptojacking;
    attack.component = args.Get("target", "PostStorageMongoDB");
    attack.start_window = harness.learn_windows() + config.windows_per_day * (days - 1) +
                          config.windows_per_day / 3;
    attack.end_window = attack.start_window + config.windows_per_day / 4;
    harness.simulator().AddAttack(attack);
    std::printf("Injecting %s on %s (windows %zu-%zu)\n", attack_kind.c_str(),
                attack.component.c_str(), attack.start_window, attack.end_window);
  }

  Rng rng(config.seed + 43);
  const auto query = harness.RunQuery(GenerateTraffic(harness.QuerySpec(days), rng));
  const EstimateMap expected =
      estimator.EstimateFromTraces(harness.traces(), query.from, query.to);
  SanityChecker checker;
  const auto events = checker.Detect(expected, harness.metrics(), query.from, query.to);
  if (events.empty()) {
    std::printf("Sanity check: no anomalies over %zu windows.\n", query.to - query.from);
  } else {
    std::printf("Sanity check: %zu anomalous event(s):\n\n", events.size());
    for (const auto& event : events) {
      std::printf("%s\n", event.Describe(config.windows_per_day).c_str());
    }
  }
  return 0;
}

int CmdServe(const CliArgs& args) {
  HarnessConfig config = ConfigFrom(args);
  ExperimentHarness harness(config);

  const size_t serve_days = args.GetSize("serve-days", 2);
  const std::string attack_kind = args.Get("attack", "");
  if (!attack_kind.empty()) {
    AttackSpec attack;
    attack.kind = attack_kind == "ransomware" ? AttackSpec::Kind::kRansomware
                                              : AttackSpec::Kind::kCryptojacking;
    attack.component = args.Get("target", "PostStorageMongoDB");
    attack.start_window = harness.learn_windows() +
                          config.windows_per_day * (serve_days - 1) +
                          config.windows_per_day / 3;
    attack.end_window = attack.start_window + config.windows_per_day / 4;
    harness.simulator().AddAttack(attack);
    std::printf("Injecting %s on %s (windows %zu-%zu)\n", attack_kind.c_str(),
                attack.component.c_str(), attack.start_window, attack.end_window);
  }

  // Ground-truth live phase: continue the simulation so there is real
  // telemetry to stream through the pipeline.
  Rng traffic_rng(config.seed + 47);
  const auto live = harness.RunQuery(GenerateTraffic(harness.QuerySpec(serve_days), traffic_rng));

  // Telemetry fault injection: --chaos turns on the default fault mix;
  // individual probability flags override (and imply chaos on their own).
  const bool chaos_flag = args.Get("chaos", "") == "1";
  FaultInjectorConfig fault_config;
  fault_config.seed = config.seed + 101;
  fault_config.drop_prob = args.GetDouble("drop", chaos_flag ? 0.10 : 0.0);
  fault_config.duplicate_prob = args.GetDouble("dup", chaos_flag ? 0.10 : 0.0);
  fault_config.corrupt_prob = args.GetDouble("corrupt", chaos_flag ? 0.05 : 0.0);
  fault_config.metric_gap_prob = args.GetDouble("gap", chaos_flag ? 0.05 : 0.0);
  // Scripted chaos: a window-addressed fault timeline layered on top of the
  // probabilistic mix. The producer's window counter is the schedule clock.
  ChaosSchedule schedule;
  {
    std::string spec_error;
    if (!ParseChaosSchedule(args.Get("chaos-schedule", ""), &schedule, &spec_error)) {
      std::fprintf(stderr, "serve: bad --chaos-schedule: %s\n", spec_error.c_str());
      return 2;
    }
    // Spec windows are relative to the start of serving; the injector and
    // pipeline work in absolute simulation windows.
    for (ChaosEvent& event : schedule.events) {
      event.start_window += live.from;
      event.end_window += live.from;
    }
  }
  const bool chaos = fault_config.drop_prob > 0.0 || fault_config.duplicate_prob > 0.0 ||
                     fault_config.corrupt_prob > 0.0 || fault_config.metric_gap_prob > 0.0 ||
                     !schedule.empty();
  // A schedule implies supervision (that is the point of the demo); both are
  // independently overridable.
  const bool supervise = args.Get("supervise", schedule.empty() ? "0" : "1") == "1";
  FaultInjector injector(fault_config, schedule);
  std::atomic<size_t> chaos_window{live.from};
  if (chaos) {
    std::printf("Chaos: drop=%.2f dup=%.2f corrupt=%.2f gap=%.2f (seed %llu)\n",
                fault_config.drop_prob, fault_config.duplicate_prob, fault_config.corrupt_prob,
                fault_config.metric_gap_prob,
                static_cast<unsigned long long>(fault_config.seed));
  }
  if (!schedule.empty()) {
    std::printf("Chaos schedule: %s\n", FormatChaosSchedule(schedule).c_str());
  }

  // Supervision tree: a skew-able health clock (the clock_skew fault), the
  // registry every long-lived actor heartbeats into, and a watchdog-driven
  // supervisor that records incidents and restarts crashed workers.
  // Declared before the supervised components so it outlives them all.
  SteadyHealthClock steady_clock;
  SkewedHealthClock health_clock(steady_clock);
  HealthRegistry health(&health_clock);

  // Initial model: a recovered checkpoint wins, then --model, then the
  // harness's freshly trained one.
  std::printf("Preparing initial model...\n");
  const std::string checkpoint_path = args.Get("checkpoint", "");

  // Soft-memory tiered state: the per-stream warm-start cache, sized by the
  // budget once the serving model is known. It is declared before the
  // service, so the service stops leasing before the cache dies.
  const size_t memory_budget_mb = args.GetSize("memory-budget-mb", 0);
  std::unique_ptr<StateCache> stream_states;
  const std::string slab_path = "deeprest_state.slab";

  ModelRegistry registry;
  std::shared_ptr<const DeepRestEstimator> initial;
  size_t start_window = live.from;
  if (!checkpoint_path.empty()) {
    CheckpointData recovered;
    const RecoverySource source = RecoverCheckpoint(checkpoint_path, &recovered);
    if (source != RecoverySource::kNone && registry.Restore(recovered.model, recovered.version)) {
      std::printf("Recovered checkpoint (%s): model v%llu, trained through window %llu\n",
                  RecoverySourceName(source),
                  static_cast<unsigned long long>(recovered.version),
                  static_cast<unsigned long long>(recovered.trained_through));
      initial = recovered.model;
      start_window = std::max<size_t>(start_window,
                                      static_cast<size_t>(recovered.trained_through));
    }
  }
  if (initial == nullptr) {
    const std::string model_path = args.Get("model", "");
    std::unique_ptr<DeepRestEstimator> fresh;
    if (!model_path.empty()) {
      fresh = std::make_unique<DeepRestEstimator>();
      if (!fresh->Load(model_path)) {
        std::fprintf(stderr, "serve: could not load --model=%s\n", model_path.c_str());
        return 2;
      }
    } else {
      fresh = harness.deeprest().Clone();
    }
    initial = std::move(fresh);
    registry.Publish(initial);
  }
  if (memory_budget_mb > 0) {
    // Half the budget caps the hot tier; the other half is the slab's index
    // RAM, one kColdEntryOverhead record per slot. A slot holds one stream's
    // expert_count * hidden_dim hidden floats.
    const size_t half_budget = (memory_budget_mb << 20) / 2;
    StateCacheConfig cache_config;
    cache_config.hot_bytes = half_budget;
    cache_config.slab_path = slab_path;
    cache_config.slab_slot_payload_bytes =
        StatePayloadBytes(initial->expert_count() * initial->hidden_dim());
    cache_config.slab_slots = half_budget / kColdEntryOverhead;
    stream_states = std::make_unique<StateCache>(cache_config);
  }
  // Chaos implies an at-least-once transport, so trace dedup goes on.
  IngestPipelineConfig pipeline_config;
  pipeline_config.shards = 4;
  pipeline_config.dedupe_traces = chaos;
  IngestPipeline pipeline(initial->features(), pipeline_config);

  ContinualLearnerConfig learner_config;
  learner_config.min_new_windows = args.GetSize("refresh-windows", config.windows_per_day);
  learner_config.epochs = 2;
  learner_config.checkpoint_path = checkpoint_path;
  if (supervise) {
    learner_config.health = &health;
  }
  if (!schedule.empty()) {
    // alloc_fail faults land on the fine-tune path: the refresh is skipped
    // (no windows consumed) and retried once the scheduled failure passes.
    learner_config.alloc_fail_hook = [&injector, &chaos_window] {
      return injector.TakeAllocFail(chaos_window.load(std::memory_order_acquire));
    };
  }
  ContinualLearner learner(registry, pipeline, start_window, learner_config);
  learner.Start();

  EstimationServiceConfig service_config;
  service_config.workers = args.GetSize("workers", 4);
  service_config.max_batch = args.GetSize("batch", 8);
  service_config.max_queue = args.GetSize("max-queue", 0);
  service_config.default_deadline =
      std::chrono::milliseconds(args.GetSize("deadline-ms", 0));
  if (supervise) {
    service_config.health = &health;
  }
  if (stream_states != nullptr) {
    service_config.stream_states = stream_states.get();
  }
  if (!schedule.empty()) {
    service_config.worker_fault_hook = [&injector, &chaos_window](size_t worker) {
      const size_t w = chaos_window.load(std::memory_order_acquire);
      if (injector.TakeCrash(w, static_cast<int>(worker))) {
        return WorkerFault::kCrash;
      }
      double stall_ms = 0.0;
      if (injector.TakeStall(w, static_cast<int>(worker), &stall_ms)) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
        return WorkerFault::kStall;
      }
      return WorkerFault::kNone;
    };
  }
  EstimationService service(registry, pipeline, service_config);

  Supervisor supervisor(health);
  Watchdog watchdog(supervisor, health, {});
  if (supervise) {
    for (size_t i = 0; i < service_config.workers; ++i) {
      const size_t id =
          health.Register("estimation-worker-" + std::to_string(i), 1).id();
      supervisor.Watch(id, [&service, i] { return service.RestartWorker(i); });
    }
    // The learner cannot be force-restarted (a wedged fine-tune is a live
    // thread), so it is watched without a callback: its stalls are recorded
    // as incidents.
    supervisor.Watch(health.Register("continual-learner", 1).id());
    watchdog.Start();
  }

  // Deployment verification row: what this process actually selected, not
  // what was requested (a forced ISA clamps down the ladder when the host
  // lacks it).
  std::printf("Kernels: mode=%s isa=%s (host best: %s)\n",
              KernelModeName(GetKernelMode()), simd::IsaName(simd::ActiveIsa()),
              simd::IsaName(simd::BestSupportedIsa()));
  // Same discipline as the Kernels row: what this process actually wired,
  // not what was requested (a slab that failed to open drops every evicted
  // state and says so).
  if (stream_states != nullptr) {
    const StateCacheConfig& wired = stream_states->config();
    std::printf("Memory: budget=%zuMB (stream cache hot %s + disk slab %zu slots x %s = %s)%s\n",
                memory_budget_mb, FormatBytes(wired.hot_bytes).c_str(), wired.slab_slots,
                FormatBytes(wired.slab_slot_payload_bytes).c_str(),
                FormatBytes(wired.slab_slots * wired.slab_slot_payload_bytes).c_str(),
                stream_states->disk_ok() ? "" : " [slab open FAILED: evictions drop]");
  } else {
    std::printf("Memory: budget=unlimited state-cache=off (pass --memory-budget-mb=N "
                "to bound resident serving state)\n");
  }
  std::printf("Serving %zu live windows with %zu workers (batch %zu)...\n",
              live.to - live.from, service_config.workers, service_config.max_batch);

  // Producer: replays the live phase's traces and metric samples into the
  // sharded pipeline, one window at a time, as a telemetry agent would —
  // through the fault injector when chaos is on.
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    const auto keys = harness.metrics().Keys();
    for (size_t w = live.from; w < live.to; ++w) {
      // The producer's window IS the chaos clock: scheduled process faults
      // (worker stall/crash, alloc fail) key off it, and any active
      // clock_skew event warps the supervisor's view of staleness.
      chaos_window.store(w, std::memory_order_release);
      health_clock.SetSkewMicros(static_cast<int64_t>(injector.ClockSkewUs(w)));
      for (const Trace& trace : harness.traces().TracesAt(w)) {
        if (chaos) {
          for (auto& delivery : injector.ProcessTrace(w, trace)) {
            pipeline.IngestTrace(delivery.window, std::move(delivery.trace));
          }
        } else {
          pipeline.IngestTrace(w, trace);
        }
      }
      for (const MetricKey& key : keys) {
        const double value = harness.metrics().At(key, w);
        if (!chaos || injector.ProcessMetric(key, w, value)) {
          pipeline.IngestMetric(key, w, value);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    producing.store(false);
  });

  // Clients: a mix of mode-1 traffic estimates and mode-2 sanity checks over
  // the freshest sealed windows. Shed and expired results are retried with
  // exponential backoff + jitter — the client-side half of overload
  // protection: backing off drains the queue instead of hammering it.
  const size_t client_count = args.GetSize("clients", 3);
  const size_t max_retries = args.GetSize("retries", 3);
  std::atomic<uint64_t> versions_seen_bits{0};
  std::atomic<size_t> anomalies_seen{0};
  std::atomic<uint64_t> client_retries{0};
  std::atomic<uint64_t> client_gave_up{0};
  std::vector<std::thread> clients;
  clients.reserve(client_count);
  for (size_t c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(config.seed * 977 + c);
      // Runs one submission through the retry loop; returns the final status.
      const auto with_backoff = [&](auto submit) {
        for (size_t attempt = 0;; ++attempt) {
          const RequestStatus status = submit();
          if (status == RequestStatus::kOk || status == RequestStatus::kRejectedStopped ||
              attempt >= max_retries) {
            if (status != RequestStatus::kOk) {
              client_gave_up.fetch_add(1, std::memory_order_relaxed);
            }
            return status;
          }
          client_retries.fetch_add(1, std::memory_order_relaxed);
          const double base_ms = static_cast<double>(uint64_t{1} << std::min<size_t>(attempt, 8));
          const double jittered_ms = rng.Uniform(0.5 * base_ms, 1.5 * base_ms);
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(jittered_ms));
        }
      };
      size_t round = 0;
      while (producing.load(std::memory_order_acquire)) {
        if (++round % 5 == 0 && pipeline.featured_windows() > live.from + 4) {
          with_backoff([&] {
            auto future = service.SubmitSanityCheck(live.from, pipeline.featured_windows());
            const auto result = future.get();
            if (result.status == RequestStatus::kOk) {
              anomalies_seen.fetch_add(result.events.size(), std::memory_order_relaxed);
              versions_seen_bits.fetch_or(uint64_t{1} << (result.model_version & 63u),
                                          std::memory_order_relaxed);
            }
            return result.status;
          });
        } else {
          with_backoff([&] {
            TrafficSpec spec = harness.QuerySpec(1);
            spec.user_scale = rng.Uniform(0.5, 3.0);
            // With tiered state on, each client is a stream: its hidden state
            // warm-starts the next request (and rides the hot/cold tiers).
            auto future = stream_states != nullptr
                              ? service.SubmitStreamTraffic(1 + c, GenerateTraffic(spec, rng),
                                                            rng.NextU64())
                              : service.SubmitTraffic(GenerateTraffic(spec, rng), rng.NextU64());
            const auto result = future.get();
            if (result.status == RequestStatus::kOk) {
              versions_seen_bits.fetch_or(uint64_t{1} << (result.model_version & 63u),
                                          std::memory_order_relaxed);
            }
            return result.status;
          });
        }
      }
    });
  }

  producer.join();
  for (auto& client : clients) {
    client.join();
  }
  watchdog.Stop();
  health_clock.SetSkewMicros(0);
  learner.Stop();

  // Final fold seals the last window, then one authoritative sanity pass.
  pipeline.Fold(pipeline.WindowFrontier());
  const auto final_sanity = service.SubmitSanityCheck(live.from, live.to).get();
  service.Stop();

  const ServiceCounters counters = service.Counters();
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, value] : counters.Rows()) {
    rows.push_back({name, value});
  }
  rows.push_back({"late events", std::to_string(pipeline.late_events())});
  rows.push_back({"traces ingested", std::to_string(pipeline.total_traces())});
  rows.push_back({"learner refreshes", std::to_string(learner.refreshes_published())});
  rows.push_back({"learner fine-tunes rejected", std::to_string(learner.models_rejected())});
  if (!checkpoint_path.empty()) {
    rows.push_back({"checkpoints written", std::to_string(learner.checkpoints_written())});
  }
  rows.push_back({"client anomalies seen", std::to_string(anomalies_seen.load())});
  rows.push_back({"client retries", std::to_string(client_retries.load())});
  rows.push_back({"client gave up", std::to_string(client_gave_up.load())});
  if (chaos) {
    const FaultCounters faults = injector.counters();
    rows.push_back({"chaos traces dropped", std::to_string(faults.dropped)});
    rows.push_back({"chaos traces corrupted", std::to_string(faults.corrupted)});
    rows.push_back({"chaos traces duplicated", std::to_string(faults.duplicated)});
    rows.push_back({"chaos metric gaps", std::to_string(faults.metric_gaps)});
    if (!schedule.empty()) {
      rows.push_back({"chaos worker stalls", std::to_string(faults.worker_stalls)});
      rows.push_back({"chaos worker crashes", std::to_string(faults.worker_crashes)});
      rows.push_back({"chaos clock skews", std::to_string(faults.clock_skews)});
      rows.push_back({"chaos alloc fails", std::to_string(faults.alloc_fails)});
    }
  }
  if (supervise) {
    const SupervisorCounters sup = supervisor.counters();
    uint64_t mttr_max_us = 0;
    for (const RecoveryIncident& incident : supervisor.Incidents()) {
      if (incident.recovered()) {
        mttr_max_us = std::max(mttr_max_us, incident.mttr_us());
      }
    }
    rows.push_back({"watchdog scans", std::to_string(watchdog.scans())});
    rows.push_back({"incidents opened", std::to_string(sup.incidents_opened)});
    rows.push_back({"incidents recovered", std::to_string(sup.incidents_recovered)});
    rows.push_back({"max MTTR (ms)", std::to_string(mttr_max_us / 1000)});
  }
  std::printf("\nService counters:\n%s\n", RenderTable({"counter", "value"}, rows).c_str());

  uint64_t versions = 0;
  for (uint64_t bits = versions_seen_bits.load(); bits != 0; bits &= bits - 1) {
    ++versions;
  }
  std::printf("Model versions observed by clients: %llu (registry at v%llu)\n",
              static_cast<unsigned long long>(versions),
              static_cast<unsigned long long>(registry.version()));

  if (final_sanity.min_quality < 1.0) {
    std::printf("Telemetry quality over the checked range: min %.2f (degraded windows get "
                "widened anomaly tolerance)\n",
                final_sanity.min_quality);
  }
  if (final_sanity.events.empty()) {
    std::printf("Final sanity check (v%llu): no anomalies over %zu windows.\n",
                static_cast<unsigned long long>(final_sanity.model_version),
                final_sanity.to - final_sanity.from);
  } else {
    std::printf("Final sanity check (v%llu): %zu anomalous event(s):\n\n",
                static_cast<unsigned long long>(final_sanity.model_version),
                final_sanity.events.size());
    for (const auto& event : final_sanity.events) {
      std::printf("%s\n", event.Describe(config.windows_per_day).c_str());
    }
  }
  if (stream_states != nullptr) {
    std::remove(slab_path.c_str());  // serving scratch, not a checkpoint
  }
  return 0;
}

int CmdAutoscale(const CliArgs& args) {
  // Validate flags before the (potentially minutes-long) training step.
  std::vector<PolicyKind> policies;
  const std::string policy_flag = args.Get("policy", "all");
  if (policy_flag == "all") {
    policies = AllPolicyKinds();
  } else {
    PolicyKind kind;
    if (!ParsePolicyKind(policy_flag, kind)) {
      std::fprintf(stderr, "autoscale: unknown --policy=%s\n", policy_flag.c_str());
      return 2;
    }
    policies.push_back(kind);
  }
  std::vector<ScenarioKind> scenarios;
  const std::string scenario_flag = args.Get("scenario", "all");
  if (scenario_flag == "all") {
    scenarios = AllScenarioKinds();
  } else {
    ScenarioKind kind;
    if (!ParseScenarioKind(scenario_flag, kind)) {
      std::fprintf(stderr, "autoscale: unknown --scenario=%s\n", scenario_flag.c_str());
      return 2;
    }
    scenarios.push_back(kind);
  }

  ExperimentHarness harness(ConfigFrom(args));
  std::printf("Training the estimator (%zu learn windows)...\n", harness.learn_windows());
  const DeepRestEstimator& model = harness.deeprest();

  const HarnessConfig config = ConfigFrom(args);
  ScenarioSpec scenario_spec;
  scenario_spec.days = args.GetSize("scenario-days", 2);
  scenario_spec.user_scale = args.GetDouble("scale", 3.0);

  ClosedLoopConfig loop;
  loop.windows_per_day = config.windows_per_day;
  loop.default_capacity_cpu = args.GetDouble("capacity", 10.0);
  loop.policy_config.sizing.min_capacity_cpu = loop.default_capacity_cpu;
  loop.policy_config.sizing.capacity_step_cpu = loop.default_capacity_cpu;
  loop.policy_config.predictive_headroom = 0.71;
  loop.forecast_upper_weight = 0.0;
  loop.controller.control_interval = args.GetSize("interval", 4);
  loop.controller.lookahead = 0;
  loop.faults.seed = config.seed + 103;
  loop.faults.metric_gap_prob = args.GetDouble("gap", 0.0);

  std::vector<std::vector<std::string>> rows;
  for (ScenarioKind scenario_kind : scenarios) {
    ScenarioSpec scenario = scenario_spec;
    scenario.kind = scenario_kind;
    const TrafficSeries traffic = BuildScenarioTraffic(
        harness.QuerySpec(scenario.days), scenario, config.seed + 71);
    for (PolicyKind policy_kind : policies) {
      ClosedLoopConfig cell = loop;
      cell.policy = policy_kind;
      const ClosedLoopResult r =
          RunClosedLoop(harness.app(), harness.simulator(), harness.learn_windows(),
                        traffic, &model, cell, ScenarioKindName(scenario_kind));
      rows.push_back({r.scenario, r.policy,
                      FormatDouble(100.0 * r.slo_violation_rate, 2) + "%",
                      FormatDouble(r.provisioned_core_hours, 1),
                      FormatDouble(r.demand_core_hours, 1),
                      FormatDouble(r.over_provision_ratio, 2),
                      std::to_string(r.actions),
                      std::to_string(r.counters.blank_holds)});
    }
  }
  std::printf("\nClosed loop over %zu-day scenarios at %.1fx users "
              "(%.0f-CPU replicas, tick every %zu windows):\n%s\n",
              scenario_spec.days, scenario_spec.user_scale, loop.default_capacity_cpu,
              loop.controller.control_interval,
              RenderTable({"scenario", "policy", "SLO viol", "prov core-h",
                           "demand core-h", "over-prov", "actions", "blank holds"},
                          rows)
                  .c_str());
  return 0;
}

int CmdDemo() {
  const std::string model = "/tmp/deeprest_demo_model.bin";
  CliArgs train_args;
  train_args.flags["model"] = model;
  train_args.flags["days"] = "4";
  if (int rc = CmdTrain(train_args); rc != 0) {
    return rc;
  }
  CliArgs estimate_args;
  estimate_args.flags["model"] = model;
  estimate_args.flags["scale"] = "2.0";
  estimate_args.flags["days"] = "4";
  estimate_args.flags["replicas-for"] = "FrontendNGINX";
  if (int rc = CmdEstimate(estimate_args); rc != 0) {
    return rc;
  }
  CliArgs check_args;
  check_args.flags["model"] = model;
  check_args.flags["days"] = "4";
  check_args.flags["attack"] = "cryptojacking";
  return CmdCheck(check_args);
}

int Usage() {
  std::fprintf(stderr,
               "usage: deeprest <train|estimate|check|serve|autoscale|demo> [--flags]\n"
               "  train    --model=FILE [--app=social|hotel] [--days=N] [--wpd=N]\n"
               "           [--seed=N] [--hidden=N] [--epochs=N]\n"
               "  estimate --model=FILE [--scale=X] [--shape=two_peak|flat|single_peak]\n"
               "           [--query-days=N] [--replicas-for=COMPONENT]\n"
               "  check    --model=FILE [--attack=ransomware|cryptojacking]\n"
               "           [--target=COMPONENT] [--query-days=N]\n"
               "  serve    [--model=FILE] [--serve-days=N] [--workers=N] [--batch=N]\n"
               "           [--clients=N] [--refresh-windows=N] [--attack=...]\n"
               "           [--chaos] [--drop=P] [--dup=P] [--corrupt=P] [--gap=P]\n"
               "           [--chaos-schedule=kind@start[-end][:target][*mag];...]\n"
               "           [--supervise=0|1]\n"
               "           [--max-queue=N] [--deadline-ms=N] [--retries=N] [--checkpoint=FILE]\n"
               "           [--memory-budget-mb=N]\n"
               "  autoscale [--policy=reactive|predictive|oracle|all]\n"
               "           [--scenario=diurnal|flash_crowd|api_mix_drift|all]\n"
               "           [--scenario-days=N] [--scale=X] [--capacity=CPU]\n"
               "           [--interval=N] [--gap=P]\n"
               "  demo     end-to-end tour on the social network\n"
               "global flags (all commands):\n"
               "  --kernel-mode=tiled|simd|reference   GEMM / element-wise backend\n"
               "  --isa=auto|scalar|avx2|avx512|neon   simd rung (DEEPREST_SIMD env var)\n");
  return 2;
}

}  // namespace
}  // namespace deeprest

int main(int argc, char** argv) {
  const deeprest::CliArgs args = deeprest::Parse(argc, argv);
  if (const std::string unknown = deeprest::FirstUnknownFlag(args); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return deeprest::Usage();
  }
  if (!deeprest::ApplyKernelFlags(args)) {
    return 2;
  }
  if (args.command == "train") {
    return deeprest::CmdTrain(args);
  }
  if (args.command == "estimate") {
    return deeprest::CmdEstimate(args);
  }
  if (args.command == "check") {
    return deeprest::CmdCheck(args);
  }
  if (args.command == "serve") {
    return deeprest::CmdServe(args);
  }
  if (args.command == "autoscale") {
    return deeprest::CmdAutoscale(args);
  }
  if (args.command == "demo") {
    return deeprest::CmdDemo();
  }
  return deeprest::Usage();
}

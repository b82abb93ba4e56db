// Background controller lifecycle for the serving stack.
//
// Runs alongside the ContinualLearner with the same shape: a single
// background thread polls the IngestPipeline and, every control_interval
// newly featured windows, builds observations from the folded metrics,
// fetches a what-if forecast for the operator's planned traffic through a
// WhatIfSource (EstimationService in production), and ticks the
// AutoscaleController. The actions land in a caller-provided sink — in a
// real deployment that would be the orchestrator API; in the simulator it is
// Simulator::SetReplicas / SetReplicaCapacity.
//
// Degraded telemetry: a window whose sealed DataQuality falls below
// min_quality marks its components' observations blank, so the controller
// fail-statics through collector outages instead of scaling on imputed data.
//
// Lock hierarchy (DESIGN.md "Concurrency invariants & lock hierarchy"):
//   lifecycle_mu_ — Start/Stop/destruction only, guards thread_; never held
//                   while ticking.
//   tick_mu_      — serializes TickOnce against the background tick, then
//                   calls into AutoscaleController::mu_ (tick_mu_ -> mu_).
#ifndef SRC_AUTOSCALE_LOOP_H_
#define SRC_AUTOSCALE_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/autoscale/controller.h"
#include "src/core/thread_annotations.h"
#include "src/serve/health.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/whatif.h"
#include "src/sim/app.h"

namespace deeprest {

struct AutoscaleLoopConfig {
  // Tick once per this many newly featured windows.
  size_t control_interval = 4;
  // How often the background thread polls the pipeline.
  std::chrono::milliseconds poll_interval{20};
  // Base seed for the what-if queries; the tick window is folded in so every
  // forecast is deterministic AND distinct.
  uint64_t whatif_seed = 1;
  // Sealed windows below this DataQuality score yield blank observations.
  double min_quality = 0.5;
  // Supervision: when set, the background loop heartbeats into the registry
  // under this component name. Must outlive the loop.
  HealthRegistry* health = nullptr;
  std::string health_name = "autoscale-loop";
  uint64_t stall_threshold_us = 500000;
};

class AutoscaleLoop {
 public:
  using ActionSink = std::function<void(const std::vector<ScalingAction>&)>;

  // controller / whatif / pipeline must outlive the loop. `planned` is the
  // operator-declared traffic plan the predictive policy forecasts against;
  // window 0 of the plan is absolute window `plan_base`. The sink may be
  // empty (actions only recorded in the controller's log).
  AutoscaleLoop(AutoscaleController& controller, WhatIfSource& whatif,
                IngestPipeline& pipeline, const Application& app,
                TrafficSeries planned, size_t plan_base,
                const AutoscaleLoopConfig& config = {}, ActionSink sink = {});
  ~AutoscaleLoop();

  AutoscaleLoop(const AutoscaleLoop&) = delete;
  AutoscaleLoop& operator=(const AutoscaleLoop&) = delete;

  void Start();
  void Stop();

  // One synchronous control attempt (also what the background thread runs):
  // folds the pipeline and ticks the controller if control_interval new
  // windows have been featured since the last tick. Returns true iff a tick
  // ran.
  bool TickOnce();

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  // One past the last window a control decision covered.
  size_t controlled_through() const {
    return controlled_through_.load(std::memory_order_acquire);
  }

 private:
  void Loop();

  AutoscaleController& controller_;
  WhatIfSource& whatif_;
  IngestPipeline& pipeline_;
  const Application* app_;
  TrafficSeries planned_;
  size_t plan_base_;
  AutoscaleLoopConfig config_;
  ActionSink sink_;

  // Serializes TickOnce vs. the background tick; acquired before
  // AutoscaleController::mu_ (via controller_.Tick), never after it.
  // deeprest-lint: lock-level(before AutoscaleController::mu_, IngestPipeline::fold_mu_)
  Mutex tick_mu_;
  // Absolute window of the next due tick.
  size_t next_tick_ DEEPREST_GUARDED_BY(tick_mu_) = 0;

  // Start/Stop/destruction only (same pattern as ContinualLearner: the loop
  // thread never takes this mutex, so Stop can join while holding it).
  Mutex lifecycle_mu_;  // deeprest-lint: lock-level(leaf)
  std::thread thread_ DEEPREST_GUARDED_BY(lifecycle_mu_);

  std::atomic<uint64_t> ticks_{0};
  std::atomic<size_t> controlled_through_{0};
  std::atomic<bool> stop_{false};
  HealthHandle health_;
};

}  // namespace deeprest

#endif  // SRC_AUTOSCALE_LOOP_H_

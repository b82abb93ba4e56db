#include "src/autoscale/loop.h"

#include <algorithm>
#include <utility>

#include "src/autoscale/scenario.h"

namespace deeprest {

AutoscaleLoop::AutoscaleLoop(AutoscaleController& controller, WhatIfSource& whatif,
                             IngestPipeline& pipeline, const Application& app,
                             TrafficSeries planned, size_t plan_base,
                             const AutoscaleLoopConfig& config, ActionSink sink)
    : controller_(controller), whatif_(whatif), pipeline_(pipeline), app_(&app),
      planned_(std::move(planned)), plan_base_(plan_base), config_(config),
      sink_(std::move(sink)) {
  if (config_.health != nullptr) {
    health_ = config_.health->Register(config_.health_name, config_.stall_threshold_us);
  }
  MutexLock lock(tick_mu_);
  // First decision once a full interval beyond the plan base is sealed.
  next_tick_ = plan_base_ + config_.control_interval;
  controlled_through_.store(plan_base_, std::memory_order_release);
}

AutoscaleLoop::~AutoscaleLoop() { Stop(); }

void AutoscaleLoop::Start() {
  MutexLock lock(lifecycle_mu_);
  if (thread_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void AutoscaleLoop::Stop() {
  // Same shape as ContinualLearner::Stop: the flag flips under lifecycle_mu_
  // so a racing Start cannot clear it between the store and the join.
  MutexLock lock(lifecycle_mu_);
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  health_.MarkStopped();
}

void AutoscaleLoop::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    health_.Heartbeat();
    TickOnce();
    std::this_thread::sleep_for(config_.poll_interval);
  }
}

bool AutoscaleLoop::TickOnce() {
  MutexLock lock(tick_mu_);
  const size_t frontier = pipeline_.WindowFrontier();
  if (frontier == 0) {
    return false;
  }
  // Live watermark: the frontier window may still be receiving events.
  pipeline_.Fold(frontier - 1);
  const size_t featured = pipeline_.featured_windows();
  if (featured < next_tick_) {
    return false;
  }
  const size_t decision_window = featured;  // first window the decision governs
  const size_t evidence_window = featured - 1;  // newest sealed window

  // Observations from the newest sealed window. In serve mode the ingested
  // CPU metric is the component's demand (the telemetry the estimator was
  // trained on), so the demand estimate is the metric itself and utilization
  // follows from the controller's current deployment.
  const MetricsStore metrics = pipeline_.MetricsCopy();
  const std::vector<DataQuality> quality =
      pipeline_.QualitySlice(evidence_window, featured);
  const bool blank = !quality.empty() && quality.front().score < config_.min_quality;
  const std::map<std::string, ComponentScale> scale = controller_.CurrentScale();
  std::map<std::string, ComponentObservation> observations;
  for (const auto& spec : app_->components()) {
    ComponentObservation obs;
    auto it = scale.find(spec.name);
    if (it != scale.end()) {
      obs.replicas = it->second.replicas;
      obs.capacity_cpu = it->second.capacity_cpu;
      obs.stateful = it->second.stateful;
    }
    obs.demand_cpu = metrics.At({spec.name, ResourceKind::kCpu}, evidence_window);
    obs.utilization =
        obs.demand_cpu /
        std::max(1e-9, static_cast<double>(obs.replicas) * obs.capacity_cpu);
    obs.blank = blank;
    observations[spec.name] = obs;
  }

  // What-if forecast over the planned traffic for the coming interval plus
  // the lookahead. An empty estimate (no model yet, request shed) simply
  // leaves the predictive policy on its observational fallback.
  const size_t lookahead = controller_.config().lookahead;
  DemandSeries forecast;
  bool have_forecast = false;
  if (decision_window >= plan_base_) {
    const size_t plan_from = decision_window - plan_base_;
    const size_t plan_to =
        plan_from + controller_.config().control_interval + lookahead;
    const TrafficSeries slice = SliceTraffic(planned_, plan_from, plan_to);
    if (slice.windows() > 0) {
      const EstimateMap estimates =
          whatif_.Estimate(slice, config_.whatif_seed + decision_window);
      if (!estimates.empty()) {
        forecast = ForecastFromEstimates(estimates, decision_window);
        have_forecast = true;
      }
    }
  }

  PolicyInputs inputs;
  inputs.window = decision_window;
  inputs.horizon = controller_.config().control_interval;
  inputs.lookahead = lookahead;
  inputs.forecast = have_forecast ? &forecast : nullptr;

  const std::vector<ScalingAction> actions =
      controller_.Tick(decision_window, observations, inputs);
  if (sink_ && !actions.empty()) {
    sink_(actions);
  }
  next_tick_ = decision_window + controller_.config().control_interval;
  controlled_through_.store(next_tick_, std::memory_order_release);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace deeprest

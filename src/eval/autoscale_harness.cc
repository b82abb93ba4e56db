#include "src/eval/autoscale_harness.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace deeprest {

ClosedLoopResult RunClosedLoop(const Application& app, const Simulator& base_sim,
                               size_t start_window, const TrafficSeries& traffic,
                               const DeepRestEstimator* estimator,
                               const ClosedLoopConfig& config,
                               const std::string& scenario_name) {
  ClosedLoopResult result;
  result.policy = PolicyKindName(config.policy);
  result.scenario = scenario_name;
  result.windows = traffic.windows();
  result.components = app.components().size();
  if (traffic.windows() == 0) {
    return result;
  }

  const auto model = std::make_shared<QueueingCapacityModel>(config.capacity);

  // Ground-truth pass: an identical simulator copy over the same scenario.
  // Replica counts do not change what a component is ASKED to do, only how
  // it copes, and the capacity path draws the same noise as the legacy path
  // — so this copy's demand is bit-exact with the closed-loop run below.
  Simulator truth_sim = base_sim;
  truth_sim.SetCapacityModel(model, config.default_capacity_cpu);
  truth_sim.Run(traffic, start_window, nullptr, nullptr);
  DemandSeries truth;
  truth.base = start_window;
  for (const auto& spec : app.components()) {
    std::vector<double>& series = truth.cpu[spec.name];
    series.reserve(traffic.windows());
    for (size_t t = 0; t < traffic.windows(); ++t) {
      const CapacityOutcome* o = truth_sim.OutcomeAt(spec.name, start_window + t);
      series.push_back(o != nullptr ? o->demand_cpu : spec.cpu_baseline);
    }
  }

  // One what-if query covers the whole scenario: the estimator is a pure
  // function of the traffic plan, so per-tick re-queries would return slices
  // of exactly this map.
  DemandSeries forecast;
  bool have_forecast = false;
  if (config.policy == PolicyKind::kPredictive && estimator != nullptr) {
    const EstimateMap estimates = estimator->EstimateFromTraffic(traffic, config.whatif_seed);
    if (!estimates.empty()) {
      forecast = ForecastFromEstimates(estimates, start_window,
                                       config.forecast_upper_weight);
      have_forecast = true;
    }
  }

  // One sizing source of truth: cells differ in policy, never in bounds.
  AutoscaleControllerConfig ctrl_config = config.controller;
  ctrl_config.sizing = config.policy_config.sizing;
  const std::unique_ptr<ScalingPolicy> policy =
      MakePolicy(config.policy, config.policy_config);
  AutoscaleController controller(*policy, ctrl_config);

  Simulator sim = base_sim;
  sim.SetCapacityModel(model, config.default_capacity_cpu);

  // Every policy starts from the same deployment, sized for the first
  // interval's true demand — differences in the metrics are then down to
  // control decisions, not starting handicaps.
  const size_t interval = std::max<size_t>(1, ctrl_config.control_interval);
  for (const auto& spec : app.components()) {
    ComponentObservation seed_obs;
    seed_obs.capacity_cpu = config.default_capacity_cpu;
    seed_obs.stateful = spec.stateful;
    const double first_demand = truth.MaxOver(
        spec.name, start_window, start_window + interval, spec.cpu_baseline);
    const ComponentTarget init =
        SizeForDemand(first_demand, seed_obs, ctrl_config.sizing,
                      ctrl_config.sizing.target_utilization);
    controller.AddComponent(spec.name, spec.stateful, init.replicas, init.capacity_cpu);
    sim.SetReplicas(spec.name, init.replicas);
    sim.SetReplicaCapacity(spec.name, init.capacity_cpu);
  }

  FaultInjector faults(config.faults);
  MetricsStore metrics;
  const double window_hours = 24.0 / std::max<size_t>(1, config.windows_per_day);
  const size_t n = traffic.windows();
  double weighted_violations = 0.0;
  double total_requests = 0.0;

  size_t t = 0;
  while (t < n) {
    if (t > 0) {
      // Control tick at the interval boundary, on evidence from the newest
      // simulated window. The scrape runs through the fault injector: a lost
      // sample is a blank observation, never a zero.
      const size_t evidence = start_window + t - 1;
      const std::map<std::string, ComponentScale> scale = controller.CurrentScale();
      std::map<std::string, ComponentObservation> observations;
      for (const auto& spec : app.components()) {
        const ComponentScale& s = scale.at(spec.name);
        ComponentObservation obs;
        obs.replicas = s.replicas;
        obs.capacity_cpu = s.capacity_cpu;
        obs.stateful = s.stateful;
        const MetricKey key{spec.name, ResourceKind::kCpu};
        const double util_pct = metrics.At(key, evidence);
        obs.blank = !faults.ProcessMetric(key, evidence, util_pct);
        obs.utilization = util_pct / 100.0;
        obs.demand_cpu =
            obs.utilization * static_cast<double>(s.replicas) * s.capacity_cpu;
        observations[spec.name] = obs;
      }

      PolicyInputs inputs;
      inputs.window = start_window + t;
      inputs.horizon = interval;
      inputs.lookahead = ctrl_config.lookahead;
      inputs.forecast = have_forecast ? &forecast : nullptr;
      inputs.truth = config.policy == PolicyKind::kOracle ? &truth : nullptr;

      const std::vector<ScalingAction> actions =
          controller.Tick(start_window + t, observations, inputs);
      for (const ScalingAction& action : actions) {
        sim.SetReplicas(action.component, action.replicas_after);
        sim.SetReplicaCapacity(action.component, action.capacity_after);
      }
    }

    const size_t span = std::min(interval, n - t);
    const TrafficSeries slice = SliceTraffic(traffic, t, t + span);
    sim.Run(slice, start_window + t, nullptr, &metrics);

    for (size_t w = t; w < t + span; ++w) {
      const double requests = std::max(1e-9, traffic.TotalAt(w));
      double worst_violation = 0.0;
      double provisioned_cpu = 0.0;
      double demand_cpu = 0.0;
      double replicas_total = 0.0;
      for (const auto& spec : app.components()) {
        const CapacityOutcome* o = sim.OutcomeAt(spec.name, start_window + w);
        if (o == nullptr) {
          continue;
        }
        worst_violation = std::max(worst_violation, o->violation_frac);
        provisioned_cpu += static_cast<double>(o->replicas) * o->capacity_cpu;
        demand_cpu += o->demand_cpu;
        replicas_total += static_cast<double>(o->replicas);
      }
      weighted_violations += worst_violation * requests;
      total_requests += requests;
      result.provisioned_core_hours += provisioned_cpu / 100.0 * window_hours;
      result.demand_core_hours += demand_cpu / 100.0 * window_hours;
      result.peak_replicas = std::max(result.peak_replicas, replicas_total);
    }
    t += span;
  }

  result.slo_violation_rate =
      total_requests > 0.0 ? weighted_violations / total_requests : 0.0;
  result.over_provision_ratio =
      result.demand_core_hours > 0.0
          ? result.provisioned_core_hours / result.demand_core_hours
          : 0.0;
  result.mean_utilization =
      result.provisioned_core_hours > 0.0
          ? result.demand_core_hours / result.provisioned_core_hours
          : 0.0;
  result.counters = controller.counters();
  result.actions = result.counters.scale_outs + result.counters.scale_ins +
                   result.counters.grows + result.counters.shrinks;
  result.action_log = controller.ActionLog();
  return result;
}

}  // namespace deeprest

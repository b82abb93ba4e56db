// Closed-loop autoscaling evaluation.
//
// RunClosedLoop forks a learned-state simulator (warm caches, grown disks —
// exactly the deployment the estimator was trained against), installs the
// capacity model so scaling actions change simulated utilization and SLO
// outcomes, and then alternates controller ticks with simulated intervals:
//
//   forecast (what-if) -> controller.Tick -> SetReplicas/SetReplicaCapacity
//     -> simulate control_interval windows -> scrape observations -> repeat
//
// Ground truth for the oracle policy and the demand-core-hours denominator
// comes from an identical simulator copy run over the same scenario up
// front: both copies draw the same RNG sequence, so "true demand" is
// bit-exact with what the closed-loop run experiences.
//
// Reported metrics follow the Sinan / DeepScaler evaluation axes:
//   * slo_violation_rate     — request-weighted, worst component per window
//     (a request traverses many components; the most overloaded one decides
//     whether it makes the deadline);
//   * provisioned/demand core-hours and their ratio — the cost axis;
//   * action counters — the thrash axis.
//
// Determinism: every cell is self-contained (own simulator copy, own
// controller, seeded fault injector; what-if queries against a shared
// immutable model are bit-exact under concurrency per the src/nn contract
// in src/nn/layers.h), so N cells run across N threads produce
// byte-identical results to a sequential run.
#ifndef SRC_EVAL_AUTOSCALE_HARNESS_H_
#define SRC_EVAL_AUTOSCALE_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/autoscale/controller.h"
#include "src/autoscale/policy.h"
#include "src/autoscale/scenario.h"
#include "src/core/estimator.h"
#include "src/sim/capacity.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace deeprest {

struct ClosedLoopConfig {
  PolicyKind policy = PolicyKind::kReactive;
  PolicyConfig policy_config;
  AutoscaleControllerConfig controller;
  QueueingCapacityConfig capacity;
  // Per-replica capacity every component starts from (percent points of one
  // core; 50 = half-core replicas).
  double default_capacity_cpu = 50.0;
  size_t windows_per_day = 48;  // converts windows to hours for core-hours
  uint64_t whatif_seed = 7;
  // Risk appetite for the predictive forecast: the share of the CI spread
  // above the expected head to provision for (see ForecastFromEstimates).
  double forecast_upper_weight = 1.0;
  // Telemetry faults between the simulator and the controller's scrapes
  // (chaos tests): a lost scrape yields a blank observation. Default off.
  FaultInjectorConfig faults;
};

struct ClosedLoopResult {
  std::string policy;
  std::string scenario;
  size_t windows = 0;
  size_t components = 0;

  double slo_violation_rate = 0.0;     // request-weighted, in [0, 1]
  double provisioned_core_hours = 0.0;
  double demand_core_hours = 0.0;
  double over_provision_ratio = 0.0;   // provisioned / demand
  double mean_utilization = 0.0;       // demand / provisioned
  double peak_replicas = 0.0;          // max total replicas over the run

  ControllerCounters counters;
  uint64_t actions = 0;  // scale_outs + scale_ins + grows + shrinks
  std::vector<std::string> action_log;
};

// Runs one (policy, scenario) cell. `base_sim` is copied — the caller's
// simulator (typically ExperimentHarness::simulator() after the learning
// phase) is not advanced. `estimator` answers the predictive policy's
// what-if query and may be null for the reactive and oracle policies; the
// predictive policy falls back to reactive behaviour without it. It must not
// be mutated while cells run. `start_window` is the absolute window the
// scenario begins at (the learning phase length), matching the simulator's
// window axis.
ClosedLoopResult RunClosedLoop(const Application& app, const Simulator& base_sim,
                               size_t start_window, const TrafficSeries& traffic,
                               const DeepRestEstimator* estimator,
                               const ClosedLoopConfig& config,
                               const std::string& scenario_name);

}  // namespace deeprest

#endif  // SRC_EVAL_AUTOSCALE_HARNESS_H_

// Scaling policies for the closed-loop autoscale controller.
//
// A policy answers one question per component per control tick: "what should
// this component's deployment be for the coming interval?" The three
// implementations bracket the design space the evaluation harness measures
// (SLO-violation rate vs. over-provisioned core-hours, the Sinan/DeepScaler
// methodology):
//   * Reactive  — threshold baseline. Acts only on the LAST observed
//     per-replica utilization: scale when it crosses a watermark, hold
//     inside the dead band. Inherits the classic HPA weakness that a
//     saturated utilization gauge under-reports true demand, so catching up
//     with a surge takes several multiplicative ticks.
//   * Predictive — DeepRest-driven. Sizes for the upper-confidence what-if
//     forecast over the coming interval plus a lookahead, so capacity is in
//     place BEFORE the demand arrives and releases as the forecast falls.
//   * Oracle    — upper bound. Reads the simulator's true demand series and
//     sizes exactly to the SLO knee: the zero-violation minimum-cost line
//     other policies are judged against.
//
// Policies are pure functions of their inputs and hold no per-tick state;
// hysteresis, cooldowns, and clamping live in the AutoscaleController. That
// split is what makes the controller's action log deterministic and the
// policies trivially thread-compatible.
#ifndef SRC_AUTOSCALE_POLICY_H_
#define SRC_AUTOSCALE_POLICY_H_

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/estimator.h"

namespace deeprest {

// One component's telemetry as the controller sees it at a tick.
struct ComponentObservation {
  size_t replicas = 1;
  double capacity_cpu = 50.0;  // per-replica capacity, percent points
  // Total demand estimate reconstructed from the utilization scrape
  // (utilization * replicas * capacity). Saturates when the deployment is
  // overloaded — the gauge cannot see past 100% per replica.
  double demand_cpu = 0.0;
  double utilization = 0.0;  // per-replica, fraction of capacity
  bool stateful = false;
  bool blank = false;  // telemetry missing this tick (scrape lost / outage)
};

// Per-component CPU demand over a window range; index 0 of each series is
// absolute window `base`. Used for both the DeepRest what-if forecast and
// the oracle's ground truth.
struct DemandSeries {
  size_t base = 0;
  std::map<std::string, std::vector<double>> cpu;

  bool Has(const std::string& component) const { return cpu.count(component) > 0; }
  // Demand at an absolute window, clamped into the series range; `fallback`
  // when the component has no series at all.
  double At(const std::string& component, size_t window, double fallback) const;
  // Max demand over absolute windows [from, to), clamped; `fallback` when
  // the component has no series or the range is empty.
  double MaxOver(const std::string& component, size_t from, size_t to,
                 double fallback) const;
};

// Extracts a DemandSeries from a what-if estimate. `upper_weight` is the risk
// appetite: how much of the CI spread above the expected CPU head to provision
// for. 1.0 (default) takes the full upper CI — scaling for the expected value
// invites violations every time the interval estimate is honest about its
// uncertainty. Lower values trade that insurance for core-hours; at far
// extrapolations (unseen scale) the full CI can be very loose.
DemandSeries ForecastFromEstimates(const EstimateMap& estimates, size_t base,
                                   double upper_weight = 1.0);

struct PolicyInputs {
  size_t window = 0;     // first window the decision governs (absolute)
  size_t horizon = 1;    // windows until the next decision (control interval)
  size_t lookahead = 0;  // extra windows the predictive policy peeks ahead
  const DemandSeries* forecast = nullptr;  // what-if upper CI (predictive)
  const DemandSeries* truth = nullptr;     // ground-truth demand (oracle)
};

struct ComponentTarget {
  size_t replicas = 1;
  double capacity_cpu = 50.0;
};

struct SizingConfig {
  // Per-replica utilization the sizing aims at; below the capacity model's
  // SLO knee so ordinary window-to-window wobble does not violate.
  double target_utilization = 0.60;
  size_t min_replicas = 1;
  size_t max_replicas = 64;
  // Vertical scaling (stateful components: replicas stay fixed, the one
  // instance grows/shrinks) moves in quantized steps between the bounds.
  double min_capacity_cpu = 25.0;
  double max_capacity_cpu = 400.0;
  double capacity_step_cpu = 25.0;
};

// Smallest deployment keeping utilization at or below `target_utilization`
// for `demand_cpu`: more replicas for stateless components, a bigger replica
// (quantized, count unchanged) for stateful ones.
ComponentTarget SizeForDemand(double demand_cpu, const ComponentObservation& obs,
                              const SizingConfig& sizing, double target_utilization);

class ScalingPolicy {
 public:
  explicit ScalingPolicy(const SizingConfig& sizing) : sizing_(sizing) {}
  virtual ~ScalingPolicy() = default;

  virtual const char* name() const = 0;

  // Desired deployment for one component, or nullopt to hold. Must be a pure
  // function of its arguments: the controller owns hysteresis, cooldowns,
  // and clamping.
  virtual std::optional<ComponentTarget> Desired(const std::string& component,
                                                 const ComponentObservation& obs,
                                                 const PolicyInputs& in) const = 0;

  const SizingConfig& sizing() const { return sizing_; }

 protected:
  SizingConfig sizing_;
};

enum class PolicyKind { kReactive, kPredictive, kOracle };

const char* PolicyKindName(PolicyKind kind);
bool ParsePolicyKind(const std::string& name, PolicyKind& out);
const std::vector<PolicyKind>& AllPolicyKinds();

// Knobs for all three policies in one bundle, so benchmark cells differ only
// in the PolicyKind they pass to MakePolicy.
struct PolicyConfig {
  SizingConfig sizing;
  // Reactive dead band on observed per-replica utilization: act only
  // outside [low_watermark, high_watermark].
  double reactive_high_watermark = 0.80;
  double reactive_low_watermark = 0.45;
  // Margin on the reconstructed demand (a saturated gauge under-reports).
  double reactive_headroom = 1.10;
  // Margin on the forecast (usually 1.0 — the upper CI already carries it).
  double predictive_headroom = 1.0;
  // The oracle sizes to this utilization: just under the SLO knee.
  double oracle_utilization = 0.82;
};

std::unique_ptr<ScalingPolicy> MakePolicy(PolicyKind kind, const PolicyConfig& config);

// --- The three implementations (exposed for targeted unit tests) ---

class ReactiveThresholdPolicy : public ScalingPolicy {
 public:
  ReactiveThresholdPolicy(const SizingConfig& sizing, double high_watermark,
                          double low_watermark, double headroom)
      : ScalingPolicy(sizing), high_(high_watermark), low_(low_watermark),
        headroom_(headroom) {}

  const char* name() const override { return "reactive"; }
  std::optional<ComponentTarget> Desired(const std::string& component,
                                         const ComponentObservation& obs,
                                         const PolicyInputs& in) const override;

 private:
  double high_;
  double low_;
  double headroom_;
};

class PredictiveDeepRestPolicy : public ScalingPolicy {
 public:
  PredictiveDeepRestPolicy(const SizingConfig& sizing, double headroom)
      : ScalingPolicy(sizing), headroom_(headroom) {}

  const char* name() const override { return "predictive"; }
  std::optional<ComponentTarget> Desired(const std::string& component,
                                         const ComponentObservation& obs,
                                         const PolicyInputs& in) const override;

 private:
  double headroom_;
};

class OraclePolicy : public ScalingPolicy {
 public:
  OraclePolicy(const SizingConfig& sizing, double oracle_utilization)
      : ScalingPolicy(sizing), utilization_(oracle_utilization) {}

  const char* name() const override { return "oracle"; }
  std::optional<ComponentTarget> Desired(const std::string& component,
                                         const ComponentObservation& obs,
                                         const PolicyInputs& in) const override;

 private:
  double utilization_;
};

}  // namespace deeprest

#endif  // SRC_AUTOSCALE_POLICY_H_

// Pluggable capacity / SLO model for closed-loop autoscaling.
//
// The base simulator emits per-component *demand*: the CPU percentage points
// (of one core-equivalent) the offered load wants in a window. A
// CapacityModel maps that demand plus a deployment decision — replica count
// and per-replica capacity — to the outcomes an operator actually cares
// about: per-replica utilization, queueing-driven latency inflation, and the
// fraction of requests that blow the SLO. Installing one on a Simulator
// (Simulator::SetCapacityModel) makes scaling actions observable: the
// recorded CPU metric switches from raw demand to the per-replica
// utilization a cAdvisor scrape of the scaled deployment would show
// (saturating at 100%), and every (component, window) gets a CapacityOutcome
// the autoscale evaluation harness reads as ground truth.
#ifndef SRC_SIM_CAPACITY_H_
#define SRC_SIM_CAPACITY_H_

#include <cstddef>

namespace deeprest {

// What one component experienced in one window under a given deployment.
struct CapacityOutcome {
  double demand_cpu = 0.0;      // offered load, percent-of-one-core points
  size_t replicas = 1;
  double capacity_cpu = 100.0;  // per-replica capacity, percent points
  double utilization = 0.0;     // demand / (replicas * capacity), NOT capped
  double latency_factor = 1.0;  // service-time inflation from queueing
  double violation_frac = 0.0;  // fraction of this window's requests over SLO
};

class CapacityModel {
 public:
  virtual ~CapacityModel() = default;

  // Pure function of its arguments: the closed-loop harness relies on
  // identical inputs producing identical outcomes across runs and threads.
  virtual CapacityOutcome Evaluate(double demand_cpu, size_t replicas,
                                   double capacity_cpu) const = 0;
};

// Default model: replicas split the demand evenly (ideal load balancing), and
// queueing kicks in as per-replica utilization rho approaches 1. Below
// slo_knee requests meet the SLO; between slo_knee and saturation the
// violating fraction ramps linearly to 1 (an M/M/c wait-probability curve
// flattened to something a test can reason about exactly); past saturation
// the deployment is overloaded and every request violates.
struct QueueingCapacityConfig {
  double slo_knee = 0.85;           // rho where violations begin
  double saturation = 1.15;         // rho where every request violates
  double max_latency_factor = 25.0; // cap on the 1/(1-rho) blow-up
};

class QueueingCapacityModel : public CapacityModel {
 public:
  explicit QueueingCapacityModel(const QueueingCapacityConfig& config = {})
      : config_(config) {}

  CapacityOutcome Evaluate(double demand_cpu, size_t replicas,
                           double capacity_cpu) const override;

  const QueueingCapacityConfig& config() const { return config_; }

 private:
  QueueingCapacityConfig config_;
};

}  // namespace deeprest

#endif  // SRC_SIM_CAPACITY_H_

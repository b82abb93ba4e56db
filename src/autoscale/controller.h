// The closed-loop autoscale controller.
//
// Consumes per-component observations plus (policy-dependent) demand series
// each control tick and decides the deployment for the coming interval. The
// controller — not the policies — owns the damping machinery that keeps a
// control loop from oscillating:
//   * scale-up cooldown:  a component that just scaled up is not scaled up
//     again for up_cooldown windows (one decision per surge, not one per
//     noisy sample);
//   * scale-down patience + cooldown: capacity is released only after
//     down_patience CONSECUTIVE ticks proposed a lower target, and never
//     within down_cooldown windows of the last change — transient dips must
//     not shed the capacity a returning peak still needs (asymmetric on
//     purpose: adding capacity late costs SLO violations, removing it late
//     costs core-hours, and violations are the expensive side);
//   * blank-hold: a component whose telemetry went missing (scrape lost,
//     collector outage) keeps its last-known-good scale — a controller must
//     fail static, never react to an absence of data.
//
// Determinism: components live in a std::map (sorted iteration), decisions
// are pure functions of (window, observations, inputs), and the action log
// carries no timestamps — so the same seed and scenario produce a
// byte-identical log regardless of how many evaluation threads run cells
// concurrently.
//
// Thread-safety: Tick / CurrentScale / counters / ActionLog are safe to call
// from any thread; one mutex guards all controller state, and it is a leaf
// (DESIGN.md "Concurrency invariants & lock hierarchy": no lock is acquired
// while holding it).
#ifndef SRC_AUTOSCALE_CONTROLLER_H_
#define SRC_AUTOSCALE_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/autoscale/policy.h"
#include "src/core/thread_annotations.h"

namespace deeprest {

struct AutoscaleControllerConfig {
  SizingConfig sizing;
  // Windows between control decisions. Shorter reacts faster but acts on
  // noisier single-window evidence; the default matches a ~30-minute
  // interval at the paper's 48 windows/day.
  size_t control_interval = 4;
  // Extra windows beyond the interval the predictive policy peeks ahead.
  size_t lookahead = 4;
  // Damping (see file comment). Cooldowns are in windows, patience in ticks.
  size_t up_cooldown = 4;
  size_t down_cooldown = 8;
  size_t down_patience = 2;
};

struct ScalingAction {
  size_t window = 0;
  std::string component;
  size_t replicas_before = 1;
  size_t replicas_after = 1;
  double capacity_before = 0.0;
  double capacity_after = 0.0;
  double demand_cpu = 0.0;  // demand estimate the decision was based on
  std::string reason;       // "scale-out" | "scale-in" | "grow" | "shrink"

  // Deterministic log line, e.g.
  //   "w=0412 ComposePostService replicas 2->4 cap 40 demand 91.3 scale-out"
  std::string ToString() const;
};

struct ComponentScale {
  size_t replicas = 1;
  double capacity_cpu = 50.0;
  bool stateful = false;
};

struct ControllerCounters {
  uint64_t ticks = 0;
  uint64_t scale_outs = 0;        // horizontal up
  uint64_t scale_ins = 0;         // horizontal down
  uint64_t grows = 0;             // vertical up
  uint64_t shrinks = 0;           // vertical down
  uint64_t holds = 0;             // policy proposed no change
  uint64_t blank_holds = 0;       // held because telemetry was missing
  uint64_t cooldown_blocks = 0;   // change wanted, cooldown said no
  uint64_t patience_blocks = 0;   // scale-down wanted, streak not long enough
};

class AutoscaleController {
 public:
  // The policy must outlive the controller and be stateless across calls
  // (see ScalingPolicy).
  AutoscaleController(const ScalingPolicy& policy,
                      const AutoscaleControllerConfig& config);

  // Registers a component at its initial deployment. Not thread-safe against
  // Tick — register everything before the loop starts.
  void AddComponent(const std::string& name, bool stateful, size_t replicas,
                    double capacity_cpu);

  // One control decision at `window` (absolute). Observations missing a
  // registered component (or marked blank) hold that component's scale.
  // Returns the actions taken, already reflected in CurrentScale().
  std::vector<ScalingAction> Tick(
      size_t window, const std::map<std::string, ComponentObservation>& observations,
      const PolicyInputs& inputs);

  std::map<std::string, ComponentScale> CurrentScale() const;
  ControllerCounters counters() const;
  // Every action ever taken, as deterministic log lines in decision order.
  std::vector<std::string> ActionLog() const;

  const AutoscaleControllerConfig& config() const { return config_; }
  const char* policy_name() const { return policy_->name(); }

 private:
  struct ComponentState {
    ComponentScale scale;
    // Window of the last applied change in each direction; very negative so
    // the first tick is never cooldown-blocked.
    int64_t last_up = kNever;
    int64_t last_down = kNever;
    size_t down_streak = 0;  // consecutive ticks proposing a lower target
  };
  static constexpr int64_t kNever = -(int64_t(1) << 40);

  const ScalingPolicy* policy_;
  AutoscaleControllerConfig config_;

  mutable Mutex mu_;  // deeprest-lint: lock-level(leaf)
  std::map<std::string, ComponentState> state_ DEEPREST_GUARDED_BY(mu_);
  std::vector<std::string> log_ DEEPREST_GUARDED_BY(mu_);
  ControllerCounters counters_ DEEPREST_GUARDED_BY(mu_);
};

}  // namespace deeprest

#endif  // SRC_AUTOSCALE_CONTROLLER_H_

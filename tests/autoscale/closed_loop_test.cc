// End-to-end closed-loop autoscaling: the evaluation harness over a trained
// estimator and its determinism across evaluation threads.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/autoscale/policy.h"
#include "src/eval/autoscale_harness.h"
#include "src/eval/parallel.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

// One learned deployment + trained model shared by every test in this file
// (training is milliseconds with FastConfig, but there is no need to repeat
// it). The simulator is copied by RunClosedLoop, never advanced here.
struct Fixture {
  static constexpr size_t kLearnWindows = 96;
  Application app = testutil::TinyApp();
  TraceCollector traces;
  MetricsStore metrics;
  Simulator sim{app, {.seed = 9}};
  std::unique_ptr<DeepRestEstimator> model;

  Fixture() {
    sim.Run(testutil::RandomTraffic(kLearnWindows, 9), 0, &traces, &metrics);
    model = std::make_unique<DeepRestEstimator>(testutil::FastConfig());
    model->Learn(traces, metrics, 0, kLearnWindows, app.MetricCatalog());
  }
};

Fixture& F() {
  static Fixture fixture;
  return fixture;
}

// A calm plateau with a mid-run surge: enough demand swing that sizing
// decisions actually move replica counts.
TrafficSeries SurgeTraffic() {
  TrafficSeries traffic({"/read", "/write"}, 32);
  for (size_t w = 0; w < traffic.windows(); ++w) {
    const bool surge = w >= 16 && w < 23;
    traffic.set_rate(w, 0, surge ? 480.0 : 80.0);
    traffic.set_rate(w, 1, surge ? 240.0 : 40.0);
  }
  return traffic;
}

ClosedLoopConfig TestConfig(PolicyKind policy) {
  ClosedLoopConfig config;
  config.policy = policy;
  config.controller.control_interval = 4;
  config.controller.lookahead = 4;
  return config;
}

TEST(ClosedLoop, AllPoliciesRunAndAccount) {
  const TrafficSeries traffic = SurgeTraffic();
  for (PolicyKind kind : AllPolicyKinds()) {
    const ClosedLoopResult r = RunClosedLoop(F().app, F().sim, Fixture::kLearnWindows,
                                             traffic, F().model.get(), TestConfig(kind), "surge");
    SCOPED_TRACE(r.policy);
    EXPECT_EQ(r.scenario, "surge");
    EXPECT_EQ(r.windows, traffic.windows());
    EXPECT_EQ(r.components, 3u);
    EXPECT_GT(r.provisioned_core_hours, 0.0);
    EXPECT_GT(r.demand_core_hours, 0.0);
    EXPECT_GE(r.slo_violation_rate, 0.0);
    EXPECT_LE(r.slo_violation_rate, 1.0);
    EXPECT_GT(r.over_provision_ratio, 0.0);
    EXPECT_EQ(r.counters.ticks, 7u);  // boundaries at t = 4, 8, ..., 28
    EXPECT_EQ(r.actions, r.action_log.size());
  }
}

TEST(ClosedLoop, OracleIsTheUpperBound) {
  const TrafficSeries traffic = SurgeTraffic();
  const ClosedLoopResult oracle =
      RunClosedLoop(F().app, F().sim, Fixture::kLearnWindows, traffic, F().model.get(),
                    TestConfig(PolicyKind::kOracle), "surge");
  const ClosedLoopResult reactive =
      RunClosedLoop(F().app, F().sim, Fixture::kLearnWindows, traffic, F().model.get(),
                    TestConfig(PolicyKind::kReactive), "surge");
  // The oracle sizes true demand to just under the knee: it never does worse
  // than the threshold baseline on violations.
  EXPECT_LE(oracle.slo_violation_rate, reactive.slo_violation_rate + 1e-12);
}

// ISSUE acceptance: same seed + scenario => byte-identical action log whether
// cells run on one thread or N.
TEST(ClosedLoop, DeterministicAcrossEvalThreads) {
  const TrafficSeries traffic = SurgeTraffic();

  std::vector<ClosedLoopConfig> cells;
  for (PolicyKind kind : AllPolicyKinds()) {
    ClosedLoopConfig config = TestConfig(kind);
    config.whatif_seed = 7;
    cells.push_back(config);
    config.whatif_seed = 8;
    cells.push_back(config);
  }

  auto run_cell = [&](size_t i) {
    return RunClosedLoop(F().app, F().sim, Fixture::kLearnWindows, traffic, F().model.get(),
                         cells[i], "surge");
  };

  std::vector<ClosedLoopResult> serial(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    serial[i] = run_cell(i);
  }
  std::vector<ClosedLoopResult> parallel(cells.size());
  ParallelFor(cells.size(), [&](size_t i) { parallel[i] = run_cell(i); }, 4);

  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(serial[i].policy + " cell " + std::to_string(i));
    EXPECT_EQ(serial[i].action_log, parallel[i].action_log);
    EXPECT_EQ(serial[i].slo_violation_rate, parallel[i].slo_violation_rate);
    EXPECT_EQ(serial[i].provisioned_core_hours, parallel[i].provisioned_core_hours);
    EXPECT_EQ(serial[i].demand_core_hours, parallel[i].demand_core_hours);
  }
}

}  // namespace
}  // namespace deeprest

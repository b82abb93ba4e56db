// Chaos: the closed loop under degraded telemetry. A controller that loses
// its metrics must fail static — hold the last-known-good scale, never
// thrash, never scale on an absence of data. These run under the chaos-tsan
// preset alongside the serve-layer chaos suite.
#include <gtest/gtest.h>

#include "src/eval/autoscale_harness.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

// The reactive policy needs no model, so chaos cells skip training entirely
// (estimator = nullptr).
struct ChaosFixture {
  static constexpr size_t kLearnWindows = 48;
  Application app = testutil::TinyApp();
  Simulator sim{app, {.seed = 13}};

  ChaosFixture() { sim.Run(testutil::RandomTraffic(kLearnWindows, 13), 0, nullptr, nullptr); }
};

TrafficSeries ChaosTraffic() {
  TrafficSeries traffic({"/read", "/write"}, 24);
  for (size_t w = 0; w < traffic.windows(); ++w) {
    const bool surge = w >= 12 && w < 18;
    traffic.set_rate(w, 0, surge ? 420.0 : 70.0);
    traffic.set_rate(w, 1, surge ? 210.0 : 35.0);
  }
  return traffic;
}

ClosedLoopConfig ChaosConfig(PolicyKind policy, double metric_gap_prob) {
  ClosedLoopConfig config;
  config.policy = policy;
  config.controller.control_interval = 4;
  config.faults.seed = 5;
  config.faults.metric_gap_prob = metric_gap_prob;
  return config;
}

TEST(AutoscaleChaos, TotalBlackoutFreezesTheScale) {
  ChaosFixture f;
  const ClosedLoopResult r =
      RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows, ChaosTraffic(), nullptr,
                    ChaosConfig(PolicyKind::kReactive, 1.0), "blackout");
  // Every scrape lost: every observation is blank, so the controller holds
  // the initial deployment for the whole run — zero actions, not zero scale.
  EXPECT_EQ(r.actions, 0u);
  EXPECT_TRUE(r.action_log.empty());
  EXPECT_GT(r.counters.blank_holds, 0u);
  EXPECT_EQ(r.counters.scale_outs + r.counters.scale_ins + r.counters.grows +
                r.counters.shrinks,
            0u);
  // The run itself still completes and accounts sanely.
  EXPECT_EQ(r.windows, 24u);
  EXPECT_GT(r.provisioned_core_hours, 0.0);
  EXPECT_LE(r.slo_violation_rate, 1.0);
}

TEST(AutoscaleChaos, ModerateGapsDegradeWithoutThrash) {
  ChaosFixture f;
  const TrafficSeries traffic = ChaosTraffic();
  const ClosedLoopResult clean =
      RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows, traffic, nullptr,
                    ChaosConfig(PolicyKind::kReactive, 0.0), "clean");
  const ClosedLoopResult chaos =
      RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows, traffic, nullptr,
                    ChaosConfig(PolicyKind::kReactive, 0.4), "gaps");

  EXPECT_GT(chaos.counters.blank_holds, 0u);
  // Lost scrapes suppress decisions; they must never multiply them. A small
  // additive slack covers catch-up actions a gap merely postponed.
  EXPECT_LE(chaos.actions, clean.actions + chaos.counters.ticks);
  EXPECT_LE(chaos.slo_violation_rate, 1.0);
  EXPECT_GT(chaos.provisioned_core_hours, 0.0);
}

TEST(AutoscaleChaos, ChaosRunsAreReproducible) {
  ChaosFixture f;
  const TrafficSeries traffic = ChaosTraffic();
  const ClosedLoopConfig config = ChaosConfig(PolicyKind::kReactive, 0.4);
  const ClosedLoopResult a = RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows,
                                           traffic, nullptr, config, "gaps");
  const ClosedLoopResult b = RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows,
                                           traffic, nullptr, config, "gaps");
  EXPECT_EQ(a.action_log, b.action_log);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.counters.blank_holds, b.counters.blank_holds);
}

TEST(AutoscaleChaos, PredictiveWithoutForecastDegradesGracefully) {
  ChaosFixture f;
  // No model to ask the what-if query: the predictive policy must degrade to
  // observational sizing, not crash or treat "no forecast" as zero demand.
  const ClosedLoopResult r =
      RunClosedLoop(f.app, f.sim, ChaosFixture::kLearnWindows, ChaosTraffic(), nullptr,
                    ChaosConfig(PolicyKind::kPredictive, 0.2), "no-forecast");
  EXPECT_EQ(r.windows, 24u);
  EXPECT_GT(r.provisioned_core_hours, 0.0);
  EXPECT_GT(r.counters.ticks, 0u);
}

}  // namespace
}  // namespace deeprest

#include "src/baselines/baselines.h"

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "tests/testing/reference_baseline.h"

namespace deeprest {
namespace {

// ---- SimpleScaling ----

struct ScalingFixture {
  MetricsStore metrics;
  TrafficSeries learn_traffic{{"/a"}, 48};  // 2 days x 24 windows
  MetricKey cpu{"Svc", ResourceKind::kCpu};
  size_t windows_per_day = 24;

  // Utilization exactly proportional to traffic: util = 0.5 * rps.
  ScalingFixture() {
    for (size_t w = 0; w < 48; ++w) {
      const double rps = 10.0 + static_cast<double>(w % 24);
      learn_traffic.set_rate(w, 0, rps);
      metrics.Record(cpu, w, 0.5 * rps);
    }
  }
};

TEST(SimpleScalingTest, RecoversExactProportionalScaling) {
  ScalingFixture fx;
  SimpleScaling baseline;
  baseline.Learn(fx.metrics, fx.learn_traffic, 0, 48, fx.windows_per_day, {fx.cpu});

  // Query at exactly 2x the learning traffic.
  TrafficSeries query({"/a"}, 24);
  for (size_t w = 0; w < 24; ++w) {
    query.set_rate(w, 0, 2.0 * (10.0 + static_cast<double>(w)));
  }
  const EstimateMap estimates = baseline.Estimate(query);
  const auto& estimate = estimates.at(fx.cpu);
  for (size_t w = 0; w < 24; ++w) {
    EXPECT_NEAR(estimate.expected[w], 2.0 * 0.5 * (10.0 + static_cast<double>(w)), 1e-9);
  }
}

TEST(SimpleScalingTest, PointEstimateHasDegenerateInterval) {
  ScalingFixture fx;
  SimpleScaling baseline;
  baseline.Learn(fx.metrics, fx.learn_traffic, 0, 48, fx.windows_per_day, {fx.cpu});
  TrafficSeries query({"/a"}, 2);
  query.set_rate(0, 0, 10.0);
  query.set_rate(1, 0, 10.0);
  const EstimateMap estimates = baseline.Estimate(query);
  const auto& estimate = estimates.at(fx.cpu);
  EXPECT_DOUBLE_EQ(estimate.lower[0], estimate.expected[0]);
  EXPECT_DOUBLE_EQ(estimate.upper[0], estimate.expected[0]);
}

TEST(SimpleScalingTest, CannotDistinguishApis) {
  // The documented flaw: a shift in API composition with the same total
  // traffic changes nothing in the estimate.
  MetricsStore metrics;
  MetricKey cpu{"Svc", ResourceKind::kCpu};
  TrafficSeries learn({"/a", "/b"}, 24);
  for (size_t w = 0; w < 24; ++w) {
    learn.set_rate(w, 0, 10.0);
    learn.set_rate(w, 1, 10.0);
    metrics.Record(cpu, w, 30.0);
  }
  SimpleScaling baseline;
  baseline.Learn(metrics, learn, 0, 24, 24, {cpu});

  TrafficSeries query_a_heavy({"/a", "/b"}, 24);
  TrafficSeries query_b_heavy({"/a", "/b"}, 24);
  for (size_t w = 0; w < 24; ++w) {
    query_a_heavy.set_rate(w, 0, 18.0);
    query_a_heavy.set_rate(w, 1, 2.0);
    query_b_heavy.set_rate(w, 0, 2.0);
    query_b_heavy.set_rate(w, 1, 18.0);
  }
  const auto est_a = baseline.Estimate(query_a_heavy).at(cpu);
  const auto est_b = baseline.Estimate(query_b_heavy).at(cpu);
  for (size_t w = 0; w < 24; ++w) {
    EXPECT_DOUBLE_EQ(est_a.expected[w], est_b.expected[w]);
  }
}

// ---- ComponentAwareScaling ----

Trace ApiATrace(uint64_t id) {
  Trace t(id, "/a");
  const SpanIndex root = t.AddSpan("Web", "a", kNoParent);
  t.AddSpan("SvcA", "work", root);
  return t;
}

Trace ApiBTrace(uint64_t id) {
  Trace t(id, "/b");
  const SpanIndex root = t.AddSpan("Web", "b", kNoParent);
  t.AddSpan("SvcB", "work", root);
  return t;
}

TEST(ComponentAwareScalingTest, ScalesPerComponentInvocations) {
  MetricsStore metrics;
  TraceCollector learn_traces;
  const MetricKey a_cpu{"SvcA", ResourceKind::kCpu};
  const MetricKey b_cpu{"SvcB", ResourceKind::kCpu};
  uint64_t id = 0;
  for (size_t w = 0; w < 24; ++w) {
    for (int i = 0; i < 10; ++i) {
      learn_traces.Collect(w, ApiATrace(id++));
      learn_traces.Collect(w, ApiBTrace(id++));
    }
    metrics.Record(a_cpu, w, 20.0);
    metrics.Record(b_cpu, w, 20.0);
  }
  ComponentAwareScaling baseline;
  baseline.Learn(metrics, learn_traces, 0, 24, 24, {a_cpu, b_cpu});

  // Query: only /a traffic, at 2x its learning volume.
  TraceCollector query_traces;
  for (size_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 20; ++i) {
      query_traces.Collect(w, ApiATrace(id++));
    }
  }
  const EstimateMap estimates = baseline.Estimate(query_traces, 0, 4);
  // SvcA scaled 2x; SvcB had zero invocations -> scaled to zero.
  EXPECT_NEAR(estimates.at(a_cpu).expected[1], 40.0, 1e-9);
  EXPECT_NEAR(estimates.at(b_cpu).expected[1], 0.0, 1e-9);
}

TEST(ComponentAwareScalingTest, AllResourcesOfComponentShareFactor) {
  // The documented flaw: IOps scale with invocations even if the query only
  // performs reads.
  MetricsStore metrics;
  TraceCollector learn_traces;
  const MetricKey cpu{"DB", ResourceKind::kCpu};
  const MetricKey iops{"DB", ResourceKind::kWriteIops};
  uint64_t id = 0;
  for (size_t w = 0; w < 12; ++w) {
    for (int i = 0; i < 10; ++i) {
      Trace t(id++, "/x");
      t.AddSpan("DB", "op", kNoParent);
      learn_traces.Collect(w, t);
    }
    metrics.Record(cpu, w, 30.0);
    metrics.Record(iops, w, 15.0);
  }
  ComponentAwareScaling baseline;
  baseline.Learn(metrics, learn_traces, 0, 12, 12, {cpu, iops});

  TraceCollector query_traces;
  for (int i = 0; i < 30; ++i) {  // 3x invocations
    Trace t(id++, "/x");
    t.AddSpan("DB", "op", kNoParent);
    query_traces.Collect(0, t);
  }
  const EstimateMap estimates = baseline.Estimate(query_traces, 0, 1);
  EXPECT_NEAR(estimates.at(cpu).expected[0], 90.0, 1e-9);
  EXPECT_NEAR(estimates.at(iops).expected[0], 45.0, 1e-9);  // scaled blindly
}

TEST(ComponentAwareScalingTest, UnknownComponentKeepsProfile) {
  MetricsStore metrics;
  TraceCollector learn_traces;
  const MetricKey cpu{"Idle", ResourceKind::kCpu};
  for (size_t w = 0; w < 12; ++w) {
    metrics.Record(cpu, w, 5.0);  // never invoked, constant baseline
  }
  ComponentAwareScaling baseline;
  baseline.Learn(metrics, learn_traces, 0, 12, 12, {cpu});
  TraceCollector query_traces;
  const EstimateMap estimates = baseline.Estimate(query_traces, 0, 2);
  EXPECT_NEAR(estimates.at(cpu).expected[0], 5.0, 1e-9);
}

// ---- ResourceAwareDl ----

TEST(ResourceAwareDlTest, LearnsPeriodicPattern) {
  // Four identical days; forecasting the fifth should reproduce the pattern.
  MetricsStore metrics;
  const MetricKey cpu{"Svc", ResourceKind::kCpu};
  const size_t windows_per_day = 24;
  auto pattern = [](size_t w) {
    return 20.0 + 15.0 * std::sin(2.0 * M_PI * static_cast<double>(w) / 24.0);
  };
  for (size_t d = 0; d < 4; ++d) {
    for (size_t w = 0; w < windows_per_day; ++w) {
      metrics.Record(cpu, d * windows_per_day + w, pattern(w));
    }
  }
  ResourceAwareDlConfig config;
  config.epochs = 60;
  config.seed = 3;
  ResourceAwareDl baseline(config);
  baseline.Learn(metrics, 0, 4 * windows_per_day, windows_per_day, {cpu});
  const EstimateMap forecast = baseline.Forecast(windows_per_day);
  const auto& estimate = forecast.at(cpu);
  double total_err = 0.0;
  for (size_t w = 0; w < windows_per_day; ++w) {
    total_err += std::fabs(estimate.expected[w] - pattern(w)) / pattern(w);
  }
  EXPECT_LT(100.0 * total_err / windows_per_day, 15.0);
}

TEST(ResourceAwareDlTest, IgnoresQueryTrafficByDesign) {
  // The forecast API takes no traffic at all — structurally blind to the
  // query, which is the weakness the paper demonstrates.
  MetricsStore metrics;
  const MetricKey cpu{"Svc", ResourceKind::kCpu};
  for (size_t w = 0; w < 48; ++w) {
    metrics.Record(cpu, w, 10.0);
  }
  ResourceAwareDlConfig config;
  config.epochs = 10;
  ResourceAwareDl baseline(config);
  baseline.Learn(metrics, 0, 48, 24, {cpu});
  const EstimateMap forecast = baseline.Forecast(24);
  EXPECT_EQ(forecast.at(cpu).expected.size(), 24u);
}

TEST(ResourceAwareDlTest, MultiDayHorizonRollsForward) {
  MetricsStore metrics;
  const MetricKey cpu{"Svc", ResourceKind::kCpu};
  for (size_t w = 0; w < 48; ++w) {
    metrics.Record(cpu, w, 10.0 + (w % 24));
  }
  ResourceAwareDlConfig config;
  config.epochs = 10;
  ResourceAwareDl baseline(config);
  baseline.Learn(metrics, 0, 48, 24, {cpu});
  const EstimateMap forecast = baseline.Forecast(72);  // 3 days
  EXPECT_EQ(forecast.at(cpu).expected.size(), 72u);
  for (double v : forecast.at(cpu).expected) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(ResourceAwareDlTest, IntervalsOrdered) {
  MetricsStore metrics;
  const MetricKey cpu{"Svc", ResourceKind::kCpu};
  for (size_t w = 0; w < 72; ++w) {
    metrics.Record(cpu, w, 10.0 + 5.0 * std::sin(w * 0.3));
  }
  ResourceAwareDlConfig config;
  config.epochs = 15;
  ResourceAwareDl baseline(config);
  baseline.Learn(metrics, 0, 72, 24, {cpu});
  const EstimateMap forecast = baseline.Forecast(24);
  const auto& estimate = forecast.at(cpu);
  for (size_t w = 0; w < 24; ++w) {
    EXPECT_LE(estimate.lower[w], estimate.expected[w]);
    EXPECT_LE(estimate.expected[w], estimate.upper[w]);
  }
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Learn and Forecast against the same schedule on the tape
// (tests/testing/reference_baseline.h): the parameters after Learn and every
// forecast value, bit for bit.
TEST(ResourceAwareDlTest, MatchesTapeOracleBitForBit) {
  // Three experts over three days of eight windows: each pass detaches the
  // state after windows 10, 15 and 20.
  constexpr size_t kWindowsPerDay = 8;
  constexpr size_t kWindows = 3 * kWindowsPerDay;
  MetricsStore metrics;
  std::vector<MetricKey> resources;
  for (size_t c = 0; c < 3; ++c) {
    resources.push_back({"Svc" + std::to_string(c), ResourceKind::kCpu});
    for (size_t w = 0; w < kWindows; ++w) {
      metrics.Record(resources[c], w,
                     10.0 + 5.0 * std::sin(0.4 * static_cast<double>(w + c)) + 0.3 * c);
    }
  }
  ResourceAwareDlConfig config;
  config.hidden_dim = 5;
  config.epochs = 3;
  config.seed = 11;
  ResourceAwareDl production(config);
  production.Learn(metrics, 0, kWindows, kWindowsPerDay, resources);

  // The oracle model skips every production epoch and trains on the tape.
  ResourceAwareDlConfig untrained = config;
  untrained.epochs = 0;
  ResourceAwareDl oracle(untrained);
  oracle.Learn(metrics, 0, kWindows, kWindowsPerDay, resources);
  ReferenceBaseline::Learn(oracle, metrics, 0, kWindows, config.epochs);

  const auto& trained = ReferenceBaseline::Parameters(production).entries();
  const auto& reference = ReferenceBaseline::Parameters(oracle).entries();
  ASSERT_EQ(trained.size(), reference.size());
  for (size_t p = 0; p < trained.size(); ++p) {
    const Matrix& a = trained[p].value;
    const Matrix& b = reference[p].value;
    ASSERT_TRUE(a.SameShape(b)) << trained[p].name;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << trained[p].name;
  }

  // Two and a half days: the forecast rolls forward on its own predictions
  // twice.
  constexpr size_t kHorizon = 2 * kWindowsPerDay + 4;
  const EstimateMap forecast = production.Forecast(kHorizon);
  const EstimateMap expected = ReferenceBaseline::Forecast(production, kHorizon);
  ASSERT_EQ(forecast.size(), expected.size());
  for (const auto& [key, estimate] : expected) {
    const ResourceEstimate& got = forecast.at(key);
    ASSERT_EQ(got.expected.size(), kHorizon);
    EXPECT_TRUE(BitIdentical(got.expected, estimate.expected)) << key.component;
    EXPECT_TRUE(BitIdentical(got.lower, estimate.lower)) << key.component;
    EXPECT_TRUE(BitIdentical(got.upper, estimate.upper)) << key.component;
  }
}

}  // namespace
}  // namespace deeprest

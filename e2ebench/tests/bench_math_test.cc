// Tests for the benchmark's own arithmetic (src/bench_math.h) and its metric
// list (src/metrics_list.h).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_math.h"
#include "metrics_list.h"

namespace e2ebench {
namespace {

TEST(PercentileRule, TenSamplesBeyondP99NeedsOneThousand) {
  EXPECT_EQ(SamplesForTail(0.99), 1000u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_LT(SamplesBeyond(999, 0.99), kMinTailSamples);
  EXPECT_EQ(SamplesForTail(0.5), 20u);
  EXPECT_EQ(SamplesForTail(0.9), 100u);
}

TEST(PercentileRule, NearestRankQuantiles) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  EXPECT_EQ(Quantile(values, 0.5), 50.0);
  EXPECT_EQ(Quantile(values, 0.99), 99.0);
  EXPECT_EQ(Quantile(values, 1.0), 100.0);
  EXPECT_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(PercentileRule, FailuresMissEveryLimit) {
  std::vector<double> values(1000, 1.0);
  for (size_t i = 0; i < 11; ++i) {
    values[i * 90] = std::numeric_limits<double>::infinity();
  }
  EXPECT_TRUE(std::isinf(Quantile(values, 0.99)));
  EXPECT_EQ(Quantile(values, 0.5), 1.0);
}

// Tail latency linear in rate: the limit crossing is known exactly.
CapacityProbe LinearProbe(double rate, double knee_rate, double limit_ms) {
  CapacityProbe p;
  p.tail_ms = limit_ms * rate / knee_rate;
  p.pass = p.tail_ms <= limit_ms;
  return p;
}

TEST(CapacitySearch, BracketsAndInterpolatesTheKnee) {
  size_t calls = 0;
  const CapacityResult r = SearchCapacity(
      [&](double rate) {
        ++calls;
        return LinearProbe(rate, 1234.0, 20.0);
      },
      300.0, 1.5, 2, 20.0, 5.0, 20000.0);
  EXPECT_LE(r.lo, 1234.0);
  EXPECT_GT(r.hi, 1234.0);
  // Two bisections of a 1.5x bracket leave a bracket 1.5^(1/4) wide, finer
  // than the benchmark's 0.25 bounds.
  EXPECT_LE(r.hi / r.lo, std::pow(1.5, 0.25) + 1e-9);
  EXPECT_NEAR(r.capacity, 1234.0, 1e-6);
  EXPECT_EQ(calls, r.probes.size());
  EXPECT_LE(calls, 8u);
}

TEST(CapacitySearch, BenchmarkStepsResolveFinerThanTheBound) {
  const double width = std::pow(kCapacityGrowth, 1.0 / std::pow(2.0, kCapacityBisections));
  EXPECT_LT(width - 1.0, 0.25);
  const CapacityResult r = SearchCapacity(
      [](double rate) { return LinearProbe(rate, 777.0, 50.0); }, 320.0, kCapacityGrowth,
      kCapacityBisections, 50.0, 5.0, 20000.0);
  EXPECT_LE(r.hi / r.lo, width + 1e-9);
  EXPECT_NEAR(r.capacity, 777.0, 1e-6);
}

TEST(CapacitySearch, StartingAboveTheKneeStepsDown) {
  const CapacityResult r = SearchCapacity(
      [](double rate) { return LinearProbe(rate, 200.0, 10.0); }, 1000.0, 1.5, 2, 10.0, 5.0,
      20000.0);
  EXPECT_NEAR(r.capacity, 200.0, 1e-6);
  EXPECT_FALSE(r.probes.front().pass);
  EXPECT_LT(r.probes[1].rate, r.probes[0].rate);
}

TEST(CapacitySearch, NonLatencyFailureReportsTheLowerEnd) {
  // Above 500/s requests fail: the tail is infinite, so no interpolation.
  const CapacityResult r = SearchCapacity(
      [](double rate) {
        CapacityProbe p;
        p.tail_ms = rate <= 500.0 ? 1.0 : std::numeric_limits<double>::infinity();
        p.pass = rate <= 500.0;
        return p;
      },
      100.0, 1.5, 2, 10.0, 5.0, 20000.0);
  EXPECT_EQ(r.capacity, r.lo);
  EXPECT_LE(r.lo, 500.0);
  EXPECT_GT(r.hi, 500.0);
}

TEST(CapacitySearch, EdgesOfTheRange) {
  const auto always = [](double) { return CapacityProbe{0.0, 1.0, true}; };
  const auto never = [](double) {
    return CapacityProbe{0.0, std::numeric_limits<double>::infinity(), false};
  };
  EXPECT_EQ(SearchCapacity(always, 100.0, 1.5, 2, 10.0, 5.0, 400.0).capacity, 400.0);
  EXPECT_EQ(SearchCapacity(never, 100.0, 1.5, 2, 10.0, 5.0, 400.0).capacity, 0.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a: [10, 60) is covered once
      {"c", 90, 120, 0, 1},  // sticks out of the parent: only [90, 100) counts
      {"a.child", 15, 20, 1, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, UnionLength) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}, {20, 25}}), 20);
  EXPECT_EQ(UnionLength({{3, 3}, {4, 2}}), 0);
}

TEST(PoissonArrivals, DeterministicPerSeed) {
  const auto a = PoissonArrivals(42, 500.0, 2000);
  const auto b = PoissonArrivals(42, 500.0, 2000);
  const auto c = PoissonArrivals(43, 500.0, 2000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_GT(a.front(), 0.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i], a[i - 1]);
  }
  // 2000 arrivals at 500/s span about 4 s.
  EXPECT_NEAR(a.back(), 4.0, 4.0 * 0.08);
}

TEST(PoissonArrivals, LongerScheduleExtendsTheShorterOne) {
  const auto a = PoissonArrivals(9, 300.0, 1050);
  const auto b = PoissonArrivals(9, 300.0, 100);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
  EXPECT_NEAR(a.back(), 1050.0 / 300.0, 0.5);
}

TEST(Zipf, HotRanksDominateAndDrawsRepeat) {
  const ZipfSampler zipf(1000, 1.0);
  SplitMix a(7), b(7);
  size_t rank0 = 0;
  for (int i = 0; i < 20000; ++i) {
    const size_t k = zipf.Draw(a);
    EXPECT_EQ(k, zipf.Draw(b));
    EXPECT_LT(k, 1000u);
    rank0 += k == 0 ? 1 : 0;
  }
  // Rank 0 carries 1 / H(1000) ~ 13% of the mass.
  EXPECT_NEAR(static_cast<double>(rank0) / 20000.0, 0.1336, 0.015);
}

TEST(MetricNames, MatchThePattern) {
  EXPECT_TRUE(ValidMetricName("serve.submit_us.p50"));
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  std::set<std::string> seen;
  for (const MetricSpec& spec : AllMetrics()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    EXPECT_FALSE(std::string(spec.unit).empty()) << spec.name;
    if (spec.per_layer) {
      EXPECT_FALSE(std::string(spec.moves).empty()) << spec.name;
      EXPECT_FALSE(std::string(spec.workload).empty()) << spec.name;
    }
  }
}

TEST(MetricNames, AgreeWithBenchmarkJson) {
  std::ifstream in(E2EBENCH_CONTRACT);
  if (!in) {
    GTEST_SKIP() << "no BENCHMARK.json next to the benchmark";
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const MetricSpec& spec : AllMetrics()) {
    const std::string entry = std::string("{\"name\": \"") + spec.name + "\", \"unit\": \"" +
                              spec.unit + "\"";
    EXPECT_NE(json.find(entry), std::string::npos) << spec.name;
  }
  // Nothing in BENCHMARK.json beyond the workloads and these metrics.
  size_t names = 0;
  for (size_t pos = json.find("\"name\": \""); pos != std::string::npos;
       pos = json.find("\"name\": \"", pos + 1)) {
    ++names;
  }
  EXPECT_EQ(names, AllMetrics().size() + 4) << "4 workloads plus every metric";
}

}  // namespace
}  // namespace e2ebench

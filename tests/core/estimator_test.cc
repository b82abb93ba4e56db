#include "src/core/estimator.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/sanity.h"
#include "src/sim/simulator.h"

namespace deeprest {
namespace {

// A three-component application small enough to train in milliseconds:
//   /read : Frontend -> Worker -> DB(find, CPU only)
//   /write: Frontend -> Worker -> DB(insert, CPU + write IOps + throughput)
Application TinyApp() {
  Application app("tiny");
  ComponentSpec frontend;
  frontend.name = "Frontend";
  frontend.cpu_baseline = 2.0;
  app.AddComponent(frontend);
  ComponentSpec worker;
  worker.name = "Worker";
  worker.cpu_baseline = 1.0;
  app.AddComponent(worker);
  ComponentSpec db;
  db.name = "DB";
  db.stateful = true;
  db.cpu_baseline = 1.5;
  db.initial_disk_mb = 100.0;
  db.write_noise_ops = 0.2;
  db.write_noise_kb = 2.0;
  app.AddComponent(db);

  CostTerm cpu_small;
  cpu_small.base = 0.05;
  CostTerm cpu_mid;
  cpu_mid.base = 0.12;
  CostTerm db_read_cpu;
  db_read_cpu.base = 0.10;
  CostTerm db_write_cpu;
  db_write_cpu.base = 0.08;
  CostTerm iops;
  iops.resource = ResourceKind::kWriteIops;
  iops.base = 1.0;
  CostTerm thr;
  thr.resource = ResourceKind::kWriteThroughput;
  thr.base = 1.5;

  ApiEndpoint read;
  read.name = "/read";
  OpNode read_db{"DB", "find", 1.0, "", {db_read_cpu}, {}};
  OpNode read_worker{"Worker", "get", 1.0, "", {cpu_mid}, {read_db}};
  read.root = OpNode{"Frontend", "read", 1.0, "", {cpu_small}, {read_worker}};
  app.AddApi(read);

  ApiEndpoint write;
  write.name = "/write";
  OpNode write_db{"DB", "insert", 1.0, "", {db_write_cpu, iops, thr}, {}};
  OpNode write_worker{"Worker", "put", 1.0, "", {cpu_mid}, {write_db}};
  write.root = OpNode{"Frontend", "write", 1.0, "", {cpu_small}, {write_worker}};
  app.AddApi(write);
  return app;
}

// Independent random rates per API per window: maximally identifiable.
TrafficSeries RandomTraffic(size_t windows, uint64_t seed) {
  TrafficSeries series({"/read", "/write"}, windows);
  Rng rng(seed);
  for (size_t w = 0; w < windows; ++w) {
    series.set_rate(w, 0, rng.Uniform(10.0, 120.0));
    series.set_rate(w, 1, rng.Uniform(5.0, 60.0));
  }
  return series;
}

struct TinySetup {
  Application app = TinyApp();
  TraceCollector traces;
  MetricsStore metrics;
  TrafficSeries learn_traffic;
  TrafficSeries query_traffic;
  size_t learn_windows = 96;
  size_t query_windows = 32;
};

TinySetup MakeSetup(uint64_t seed = 1) {
  TinySetup s;
  s.learn_traffic = RandomTraffic(s.learn_windows, seed);
  s.query_traffic = RandomTraffic(s.query_windows, seed + 100);
  Simulator sim(s.app, {.seed = seed});
  sim.Run(s.learn_traffic, 0, &s.traces, &s.metrics);
  sim.Run(s.query_traffic, s.learn_windows, &s.traces, &s.metrics);
  return s;
}

EstimatorConfig FastConfig() {
  EstimatorConfig config;
  config.hidden_dim = 8;
  config.epochs = 20;
  config.bptt_chunk = 24;
  config.seed = 3;
  return config;
}

TEST(DeepRestEstimatorTest, UntrainedByDefault) {
  DeepRestEstimator estimator;
  EXPECT_FALSE(estimator.trained());
}

TEST(DeepRestEstimatorTest, LearnBuildsExpertsForAllResources) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  EXPECT_TRUE(estimator.trained());
  // 2 stateless x 2 + 1 stateful x 5 = 9 experts.
  EXPECT_EQ(estimator.expert_count(), 9u);
  EXPECT_GT(estimator.TotalParameters(), 1000u);
  EXPECT_GT(estimator.features().dimension(), 0u);
}

TEST(DeepRestEstimatorTest, TrainingLossDecreases) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const auto& losses = estimator.epoch_losses();
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front() * 0.8f);
}

TEST(DeepRestEstimatorTest, EstimateFromTracesHasRightShape) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const EstimateMap estimates =
      estimator.EstimateFromTraces(s.traces, s.learn_windows, s.learn_windows + s.query_windows);
  EXPECT_EQ(estimates.size(), 9u);
  for (const auto& [key, estimate] : estimates) {
    EXPECT_EQ(estimate.expected.size(), s.query_windows) << key.ToString();
    EXPECT_EQ(estimate.lower.size(), s.query_windows);
    EXPECT_EQ(estimate.upper.size(), s.query_windows);
  }
}

TEST(DeepRestEstimatorTest, IntervalsAreOrdered) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const EstimateMap estimates =
      estimator.EstimateFromTraces(s.traces, s.learn_windows, s.learn_windows + s.query_windows);
  for (const auto& [key, estimate] : estimates) {
    for (size_t t = 0; t < s.query_windows; ++t) {
      EXPECT_LE(estimate.lower[t], estimate.expected[t]) << key.ToString();
      EXPECT_LE(estimate.expected[t], estimate.upper[t]) << key.ToString();
      EXPECT_GE(estimate.lower[t], 0.0);
    }
  }
}

double SeriesMape(const std::vector<double>& pred, const std::vector<double>& actual) {
  double total = 0.0;
  for (size_t t = 0; t < pred.size(); ++t) {
    total += std::fabs(pred[t] - actual[t]) / std::max(actual[t], 1.0);
  }
  return 100.0 * total / static_cast<double>(pred.size());
}

TEST(DeepRestEstimatorTest, LearnsTrafficToUtilizationMapping) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const size_t query_from = s.learn_windows;
  const size_t query_to = s.learn_windows + s.query_windows;
  const EstimateMap estimates = estimator.EstimateFromTraces(s.traces, query_from, query_to);

  const MetricKey worker_cpu{"Worker", ResourceKind::kCpu};
  const MetricKey db_iops{"DB", ResourceKind::kWriteIops};
  const double cpu_mape = SeriesMape(estimates.at(worker_cpu).expected,
                                     s.metrics.Series(worker_cpu, query_from, query_to));
  const double iops_mape = SeriesMape(estimates.at(db_iops).expected,
                                      s.metrics.Series(db_iops, query_from, query_to));
  EXPECT_LT(cpu_mape, 20.0) << "Worker CPU estimate off by " << cpu_mape << "%";
  EXPECT_LT(iops_mape, 25.0) << "DB write IOps estimate off by " << iops_mape << "%";
}

TEST(DeepRestEstimatorTest, EstimateFromTrafficUsesSynthesizer) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const EstimateMap estimates = estimator.EstimateFromTraffic(s.query_traffic, 7);
  const MetricKey worker_cpu{"Worker", ResourceKind::kCpu};
  const double mape =
      SeriesMape(estimates.at(worker_cpu).expected,
                 s.metrics.Series(worker_cpu, s.learn_windows, s.learn_windows + s.query_windows));
  EXPECT_LT(mape, 25.0);
}

// --- Mode 1: compiled shape counts against the trace path ---
//
// SynthesizeFeatures must produce exactly what synthesizing traces and
// extracting them produces (sections 4.4 and 4.1), with the same RNG draws.
// The trace path stays public and is the oracle here.

std::vector<std::vector<float>> TracePathSeries(const DeepRestEstimator& model,
                                                const TrafficSeries& traffic, Rng& rng) {
  TraceCollector synthetic;
  model.synthesizer().SynthesizeSeries(traffic, 0, rng, synthetic);
  return model.features().ExtractSeries(synthetic, 0, traffic.windows());
}

void ExpectSameBits(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "window " << t;
    EXPECT_EQ(std::memcmp(a[t].data(), b[t].data(), a[t].size() * sizeof(float)), 0)
        << "window " << t;
  }
}

void ExpectSameEstimates(const EstimateMap& a, const EstimateMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, estimate] : a) {
    ASSERT_TRUE(b.count(key)) << key.ToString();
    EXPECT_EQ(estimate.expected, b.at(key).expected) << key.ToString();
    EXPECT_EQ(estimate.lower, b.at(key).lower) << key.ToString();
    EXPECT_EQ(estimate.upper, b.at(key).upper) << key.ToString();
  }
}

// Same features bit for bit, same next draw afterwards, and
// EstimateFromTraffic answers from exactly the oracle's series.
void ExpectMode1Exact(const DeepRestEstimator& model, const TrafficSeries& traffic,
                      uint64_t seed) {
  Rng fast_rng(seed);
  Rng oracle_rng(seed);
  const auto fast = model.synthesizer().SynthesizeFeatures(traffic, fast_rng);
  const auto oracle = TracePathSeries(model, traffic, oracle_rng);
  ExpectSameBits(fast, oracle);
  EXPECT_EQ(fast_rng.NextU64(), oracle_rng.NextU64()) << "seed " << seed;
  ExpectSameEstimates(model.EstimateFromTraffic(traffic, seed),
                      model.EstimateFromFeaturesBatch({&oracle})[0]);
}

TrafficSeries ScaledTraffic(const TrafficSeries& base, double scale) {
  TrafficSeries scaled = base;
  for (size_t w = 0; w < base.windows(); ++w) {
    for (size_t a = 0; a < base.api_count(); ++a) {
      scaled.set_rate(w, a, base.rate(w, a) * scale);
    }
  }
  return scaled;
}

// The query-phase traces with shapes the learning phase never produced: half
// the /read traces gain a Cache:lookup child of the root, a quarter call
// Worker:get twice, and every third /write trace reaches the Worker through
// an unknown Proxy. The frozen extractor ignores every prefix through Cache
// or Proxy but still counts the root prefix, and counts the repeated
// Frontend > Worker prefix twice, so the new shapes carry counts a stale
// table would miss.
TraceCollector DriftedQueryTraces(const TinySetup& s) {
  TraceCollector drifted;
  for (size_t w = s.learn_windows; w < s.learn_windows + s.query_windows; ++w) {
    const std::vector<Trace>& traces = s.traces.TracesAt(w);
    for (size_t i = 0; i < traces.size(); ++i) {
      const Trace& original = traces[i];
      if (original.api_name() == "/read" && i % 2 == 0) {
        Trace cached = original;
        cached.AddSpan("Cache", "lookup", 0);
        drifted.Collect(w, std::move(cached));
      } else if (original.api_name() == "/read" && i % 4 == 1) {
        Trace retried = original;
        retried.AddSpan("Worker", "get", 0);
        drifted.Collect(w, std::move(retried));
      } else if (original.api_name() == "/write" && i % 3 == 0) {
        Trace proxied(original.trace_id(), original.api_name());
        proxied.AddSpan(original.root().component, original.root().operation, kNoParent);
        const SpanIndex proxy = proxied.AddSpan("Proxy", "relay", 0);
        for (size_t k = 1; k < original.size(); ++k) {
          const SpanIndex parent = original.spans()[k].parent;
          proxied.AddSpan(original.spans()[k].component, original.spans()[k].operation,
                          parent == 0 ? proxy : parent + 1);
        }
        drifted.Collect(w, std::move(proxied));
      } else {
        drifted.Collect(w, original);
      }
    }
  }
  return drifted;
}

TEST(Mode1ExactnessTest, MatchesTracePathAcrossSeedsAndUserScales) {
  TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  // 0.5-3x users puts rates on both sides of NextPoisson's lambda = 30
  // switch from the product method to the normal approximation.
  bool small_rate = false;
  bool large_rate = false;
  for (double scale : {0.5, 1.0, 2.0, 3.0}) {
    const TrafficSeries traffic = ScaledTraffic(s.query_traffic, scale);
    for (size_t w = 0; w < traffic.windows(); ++w) {
      for (size_t a = 0; a < traffic.api_count(); ++a) {
        small_rate |= traffic.rate(w, a) < 30.0;
        large_rate |= traffic.rate(w, a) >= 30.0;
      }
    }
    for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
      ExpectMode1Exact(model, traffic, seed);
    }
  }
  EXPECT_TRUE(small_rate);
  EXPECT_TRUE(large_rate);
}

TEST(Mode1ExactnessTest, UnknownApisAndZeroRateWindows) {
  TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());

  TrafficSeries traffic({"/read", "/missing", "/write"}, 8);
  for (size_t w = 0; w < 8; ++w) {
    if (w == 0 || w == 3 || w == 7) {
      continue;  // every API idle
    }
    traffic.set_rate(w, 0, 15.0 * static_cast<double>(w));
    traffic.set_rate(w, 1, 50.0);
    traffic.set_rate(w, 2, w == 5 ? 0.0 : 40.0);
  }
  for (uint64_t seed : {3u, 11u}) {
    ExpectMode1Exact(model, traffic, seed);
  }
  Rng rng(3);
  const auto series = model.synthesizer().SynthesizeFeatures(traffic, rng);
  for (size_t w : {0u, 3u, 7u}) {
    for (float v : series[w]) {
      EXPECT_EQ(v, 0.0f) << "window " << w;
    }
  }

  // An API the synthesizer never saw draws its Poisson counts and nothing
  // else, and contributes no features.
  TrafficSeries missing({"/missing"}, 4);
  missing.set_rate(1, 0, 12.0);
  missing.set_rate(2, 0, 40.0);
  Rng fast_rng(5);
  Rng poisson_rng(5);
  const auto idle = model.synthesizer().SynthesizeFeatures(missing, fast_rng);
  for (size_t w = 0; w < missing.windows(); ++w) {
    poisson_rng.NextPoisson(missing.rate(w, 0));
    for (float v : idle[w]) {
      EXPECT_EQ(v, 0.0f) << "window " << w;
    }
  }
  EXPECT_EQ(fast_rng.NextU64(), poisson_rng.NextU64());
}

TEST(Mode1ExactnessTest, TableRebuiltAfterContinueLearningOnDriftedShapes) {
  TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const size_t read_shapes = model.synthesizer().ShapeCountFor("/read");
  const size_t write_shapes = model.synthesizer().ShapeCountFor("/write");
  const size_t dim = model.features().dimension();

  const TraceCollector drifted = DriftedQueryTraces(s);
  model.ContinueLearning(drifted, s.metrics, s.learn_windows, s.learn_windows + s.query_windows,
                         2);
  EXPECT_GT(model.synthesizer().ShapeCountFor("/read"), read_shapes);
  EXPECT_GT(model.synthesizer().ShapeCountFor("/write"), write_shapes);
  EXPECT_EQ(model.features().dimension(), dim);
  for (double scale : {0.5, 3.0}) {
    for (uint64_t seed : {2u, 99u}) {
      ExpectMode1Exact(model, ScaledTraffic(s.query_traffic, scale), seed);
    }
  }
}

TEST(Mode1ExactnessTest, TableRebuiltOnLoadAndClone) {
  TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  model.ContinueLearning(DriftedQueryTraces(s), s.metrics, s.learn_windows,
                         s.learn_windows + s.query_windows, 1);

  std::stringstream buffer;
  ASSERT_TRUE(model.SaveToStream(buffer));
  DeepRestEstimator loaded;
  ASSERT_TRUE(loaded.LoadFromStream(buffer));
  std::unique_ptr<DeepRestEstimator> clone = model.Clone();
  ASSERT_NE(clone, nullptr);

  const TrafficSeries traffic = ScaledTraffic(s.query_traffic, 2.0);
  for (const DeepRestEstimator* copy : {&loaded, clone.get()}) {
    ExpectMode1Exact(*copy, traffic, 17);
    Rng original_rng(17);
    Rng copy_rng(17);
    ExpectSameBits(copy->synthesizer().SynthesizeFeatures(traffic, copy_rng),
                   model.synthesizer().SynthesizeFeatures(traffic, original_rng));
  }
}

TEST(DeepRestEstimatorTest, MaskIdentifiesResponsibleApi) {
  // Fig. 22 property: DB write IOps must attribute to /write, not /read.
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const auto influence = estimator.ApiInfluence({"DB", ResourceKind::kWriteIops});
  ASSERT_TRUE(influence.count("/read"));
  ASSERT_TRUE(influence.count("/write"));
  EXPECT_GT(influence.at("/write"), influence.at("/read"));
}

TEST(DeepRestEstimatorTest, ExpertParametersExposedForPca) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const auto params = estimator.ExpertParameters({"Worker", ResourceKind::kCpu});
  EXPECT_FALSE(params.empty());
  EXPECT_TRUE(estimator.ExpertParameters({"Nope", ResourceKind::kCpu}).empty());
}

TEST(DeepRestEstimatorTest, AttentionWeightsQueryable) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  // Self-attention is structurally zero.
  EXPECT_DOUBLE_EQ(estimator.AttentionWeight({"DB", ResourceKind::kCpu},
                                             {"DB", ResourceKind::kCpu}),
                   0.0);
  // Cross weights exist (value may be any sign).
  (void)estimator.AttentionWeight({"DB", ResourceKind::kWriteIops},
                                  {"Worker", ResourceKind::kCpu});
}

TEST(DeepRestEstimatorTest, SaveLoadReproducesPredictions) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const std::string path = ::testing::TempDir() + "/deeprest_estimator.bin";
  ASSERT_TRUE(estimator.Save(path));

  DeepRestEstimator restored;
  ASSERT_TRUE(restored.Load(path));
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.expert_count(), estimator.expert_count());

  const EstimateMap a =
      estimator.EstimateFromTraces(s.traces, s.learn_windows, s.learn_windows + 8);
  const EstimateMap b =
      restored.EstimateFromTraces(s.traces, s.learn_windows, s.learn_windows + 8);
  for (const auto& [key, estimate] : a) {
    const auto& other = b.at(key);
    for (size_t t = 0; t < estimate.expected.size(); ++t) {
      EXPECT_NEAR(estimate.expected[t], other.expected[t], 1e-4) << key.ToString();
    }
  }
  std::remove(path.c_str());
}

// The serving layer's snapshot guarantees rest on Save/Load reconstructing
// the exact same function: the same feature series must map to bit-identical
// estimates, not merely close ones.
TEST(DeepRestEstimatorTest, SaveLoadEstimatesAreBitIdentical) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const std::string path = ::testing::TempDir() + "/deeprest_bitexact.bin";
  ASSERT_TRUE(estimator.Save(path));
  DeepRestEstimator restored;
  ASSERT_TRUE(restored.Load(path));
  std::remove(path.c_str());

  const auto features = estimator.features().ExtractSeries(s.traces, s.learn_windows,
                                                           s.learn_windows + s.query_windows);
  const EstimateMap a = estimator.EstimateFromFeatures(features);
  const EstimateMap b = restored.EstimateFromFeatures(features);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, estimate] : a) {
    EXPECT_EQ(estimate.expected, b.at(key).expected) << key.ToString();
    EXPECT_EQ(estimate.lower, b.at(key).lower) << key.ToString();
    EXPECT_EQ(estimate.upper, b.at(key).upper) << key.ToString();
  }
}

TEST(DeepRestEstimatorTest, CloneIsBitIdenticalAndIndependent) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  std::unique_ptr<DeepRestEstimator> clone = estimator.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->expert_count(), estimator.expert_count());

  const auto features = estimator.features().ExtractSeries(s.traces, s.learn_windows,
                                                           s.learn_windows + s.query_windows);
  const EstimateMap original = estimator.EstimateFromFeatures(features);
  const EstimateMap cloned = clone->EstimateFromFeatures(features);
  for (const auto& [key, estimate] : original) {
    EXPECT_EQ(estimate.expected, cloned.at(key).expected) << key.ToString();
  }

  // Fine-tuning the clone must not disturb the original (independent
  // parameters) — this is what lets ContinualLearner train a clone while the
  // published snapshot keeps serving.
  clone->ContinueLearning(s.traces, s.metrics, s.learn_windows,
                          s.learn_windows + s.query_windows, 2);
  const EstimateMap after = estimator.EstimateFromFeatures(features);
  bool clone_diverged = false;
  const EstimateMap cloned_after = clone->EstimateFromFeatures(features);
  for (const auto& [key, estimate] : original) {
    EXPECT_EQ(estimate.expected, after.at(key).expected) << key.ToString();
    if (estimate.expected != cloned_after.at(key).expected) {
      clone_diverged = true;
    }
  }
  EXPECT_TRUE(clone_diverged);
}

TEST(DeepRestEstimatorTest, CloneOfUntrainedIsUntrained) {
  DeepRestEstimator estimator;
  std::unique_ptr<DeepRestEstimator> clone = estimator.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_FALSE(clone->trained());
}

TEST(DeepRestEstimatorTest, BatchEstimateMatchesPerCallExactly) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());

  const size_t mid = s.learn_windows + s.query_windows / 2;
  const auto first = estimator.features().ExtractSeries(s.traces, s.learn_windows, mid);
  const auto second =
      estimator.features().ExtractSeries(s.traces, mid, s.learn_windows + s.query_windows);
  const auto results = estimator.EstimateFromFeaturesBatch({&first, nullptr, &second, &first});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[1].empty());  // null entries yield empty maps

  const EstimateMap ref_first = estimator.EstimateFromFeatures(first);
  const EstimateMap ref_second = estimator.EstimateFromFeatures(second);
  for (const auto& [key, estimate] : ref_first) {
    EXPECT_EQ(estimate.expected, results[0].at(key).expected) << key.ToString();
    EXPECT_EQ(estimate.lower, results[0].at(key).lower) << key.ToString();
    EXPECT_EQ(estimate.upper, results[0].at(key).upper) << key.ToString();
    EXPECT_EQ(estimate.expected, results[3].at(key).expected) << key.ToString();
  }
  for (const auto& [key, estimate] : ref_second) {
    EXPECT_EQ(estimate.expected, results[2].at(key).expected) << key.ToString();
  }
}

TEST(DeepRestEstimatorTest, LoadFromMissingFileFails) {
  DeepRestEstimator estimator;
  EXPECT_FALSE(estimator.Load("/nonexistent/model.bin"));
}

TEST(DeepRestEstimatorTest, AblationConfigsTrainAndPredict) {
  TinySetup s = MakeSetup();
  for (int variant = 0; variant < 3; ++variant) {
    EstimatorConfig config = FastConfig();
    config.epochs = 6;
    config.use_api_mask = variant != 0;
    config.use_attention = variant != 1;
    config.use_recurrence = variant != 2;
    DeepRestEstimator estimator(config);
    estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
    const EstimateMap estimates = estimator.EstimateFromTraffic(s.query_traffic, 5);
    EXPECT_EQ(estimates.size(), 9u) << "variant " << variant;
  }
}

TEST(DeepRestEstimatorTest, ContinueLearningImprovesFit) {
  TinySetup s = MakeSetup();
  EstimatorConfig config = FastConfig();
  config.epochs = 6;  // deliberately undertrained
  DeepRestEstimator estimator(config);
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const float loss_after_learn = estimator.epoch_losses().back();

  // Fine-tune on the next batch of telemetry (the query windows).
  estimator.ContinueLearning(s.traces, s.metrics, s.learn_windows,
                             s.learn_windows + s.query_windows, 10);
  const float loss_after_continue = estimator.epoch_losses().back();
  EXPECT_LT(loss_after_continue, loss_after_learn);
  // Warm-start history grew.
  EXPECT_GT(estimator.epoch_losses().size(), 6u);
}

TEST(DeepRestEstimatorTest, ContinueLearningKeepsFeatureSpaceFrozen) {
  TinySetup s = MakeSetup();
  DeepRestEstimator estimator(FastConfig());
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const size_t dim_before = estimator.features().dimension();
  estimator.ContinueLearning(s.traces, s.metrics, s.learn_windows,
                             s.learn_windows + s.query_windows, 2);
  EXPECT_EQ(estimator.features().dimension(), dim_before);
}

TEST(DeepRestEstimatorTest, HiddenTrajectoriesHaveExpectedShape) {
  TinySetup s = MakeSetup();
  EstimatorConfig config = FastConfig();
  config.epochs = 4;
  DeepRestEstimator estimator(config);
  estimator.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const auto trajectories = estimator.HiddenTrajectoriesOnLearnData(10);
  EXPECT_EQ(trajectories.size(), estimator.expert_count());
  for (const auto& [key, trajectory] : trajectories) {
    EXPECT_EQ(trajectory.size(), 10u * config.hidden_dim) << key.ToString();
  }
}

TEST(DeepRestEstimatorTest, TransferCopiesRecurrentBlocks) {
  TinySetup s1 = MakeSetup(1);
  TinySetup s2 = MakeSetup(21);
  EstimatorConfig config = FastConfig();
  config.epochs = 6;
  DeepRestEstimator donor(config);
  donor.Learn(s1.traces, s1.metrics, 0, s1.learn_windows, s1.app.MetricCatalog());

  EstimatorConfig fresh_config = FastConfig();
  fresh_config.epochs = 0;  // build only
  fresh_config.seed = 99;
  DeepRestEstimator receiver(fresh_config);
  receiver.Learn(s2.traces, s2.metrics, 0, s2.learn_windows, s2.app.MetricCatalog());

  const MetricKey probe{"DB", ResourceKind::kWriteIops};
  const auto before = receiver.ExpertParameters(probe);
  const size_t transferred = receiver.TransferRecurrentWeightsFrom(donor);
  EXPECT_EQ(transferred, receiver.expert_count());
  const auto after = receiver.ExpertParameters(probe);
  // Same app, same key: the recurrent blocks are now the donor's (exact
  // match by key), so the flattened parameters must have changed.
  EXPECT_NE(before, after);
  // Exact-key match means the recurrent part equals the donor's.
  const auto donor_params = donor.ExpertParameters(probe);
  // Flattened layout: Wz,Uz,bz,Wk,Uk,bk,Wh,Uh,bh. Check a Uz entry.
  const size_t in_dim = receiver.features().dimension();
  const size_t h = 8;  // FastConfig hidden_dim
  const size_t uz_offset = h * in_dim;
  const size_t donor_in_dim = donor.features().dimension();
  EXPECT_FLOAT_EQ(after[uz_offset], donor_params[h * donor_in_dim]);
}

TEST(DeepRestEstimatorTest, TransferRejectsMismatchedHiddenDim) {
  TinySetup s = MakeSetup();
  EstimatorConfig config_a = FastConfig();
  config_a.epochs = 2;
  DeepRestEstimator a(config_a);
  a.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  EstimatorConfig config_b = FastConfig();
  config_b.hidden_dim = 4;
  config_b.epochs = 0;
  DeepRestEstimator b(config_b);
  b.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  EXPECT_EQ(b.TransferRecurrentWeightsFrom(a), 0u);
}

TEST(DeepRestEstimatorTest, DeterministicTraining) {
  TinySetup s1 = MakeSetup(11);
  TinySetup s2 = MakeSetup(11);
  DeepRestEstimator a(FastConfig());
  DeepRestEstimator b(FastConfig());
  a.Learn(s1.traces, s1.metrics, 0, s1.learn_windows, s1.app.MetricCatalog());
  b.Learn(s2.traces, s2.metrics, 0, s2.learn_windows, s2.app.MetricCatalog());
  // Bitwise: the same losses and the same model bytes, not merely close.
  ASSERT_EQ(a.epoch_losses().size(), b.epoch_losses().size());
  EXPECT_EQ(std::memcmp(a.epoch_losses().data(), b.epoch_losses().data(),
                        a.epoch_losses().size() * sizeof(float)),
            0);
  std::stringstream bytes_a;
  std::stringstream bytes_b;
  ASSERT_TRUE(a.SaveToStream(bytes_a));
  ASSERT_TRUE(b.SaveToStream(bytes_b));
  EXPECT_TRUE(bytes_a.str() == bytes_b.str());
}

}  // namespace
}  // namespace deeprest

// Accuracy budget for reduced-precision (fp16) storage, enforced end-to-end.
//
// DESIGN.md §6 documents the budget this file pins: on the tiny fixture app,
// the quantile (pinball) loss of the batch inference path may degrade by at
// most 1% when parameters are rounded to fp16 storage. The budget is
// measured against actual simulated metrics, not against the fp32
// predictions — a rounded model that happened to fit the data BETTER also
// passes.
//
// Also here: the invariants that make fp16 storage safe to deploy — the
// ModelRegistry storage policy applies exactly at the mutable publication
// points.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/serve/model_registry.h"
#include "src/sim/simulator.h"

namespace deeprest {
namespace {

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
  size_t learn_windows = 96;
  size_t query_windows = 33;
};

TinySetup MakeSetup(uint64_t seed = 1) {
  TinySetup s;
  Simulator sim(s.app, {.seed = seed});
  sim.Run(RandomTraffic(s.learn_windows, seed), 0, &s.traces, &s.metrics);
  sim.Run(RandomTraffic(s.query_windows, seed + 100), s.learn_windows, &s.traces, &s.metrics);
  return s;
}

EstimatorConfig FastConfig() {
  EstimatorConfig config;
  config.hidden_dim = 8;
  config.epochs = 8;
  config.bptt_chunk = 24;
  config.seed = 3;
  return config;
}

using FeatureSeries = std::vector<std::vector<float>>;

double Pinball(double actual, double predicted, double tau) {
  const double diff = actual - predicted;
  return diff >= 0.0 ? tau * diff : (tau - 1.0) * diff;
}

// Mean pinball loss over the query stretch, through the BATCH inference path
// (the serving path). The median prediction scores at
// tau = 0.5; the lower/upper bands at 0.05 / 0.95.
double QuantileLoss(const DeepRestEstimator& model, const FeatureSeries& features,
                    const MetricsStore& metrics, size_t from, size_t to) {
  const std::vector<const FeatureSeries*> pointers = {&features};
  const std::vector<EstimateMap> batched = model.EstimateFromFeaturesBatch(pointers);
  EXPECT_EQ(batched.size(), 1u);
  double total = 0.0;
  size_t count = 0;
  for (const auto& [key, estimate] : batched[0]) {
    const std::vector<double> actual = metrics.Series(key, from, to);
    const size_t n = std::min(actual.size(), estimate.expected.size());
    for (size_t t = 0; t < n; ++t) {
      total += Pinball(actual[t], estimate.expected[t], 0.5);
      total += Pinball(actual[t], estimate.lower[t], 0.05);
      total += Pinball(actual[t], estimate.upper[t], 0.95);
      count += 3;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

struct TrainedFixture {
  TinySetup s = MakeSetup();
  DeepRestEstimator model{FastConfig()};
  FeatureSeries query;

  TrainedFixture() {
    model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
    query = model.features().ExtractSeries(s.traces, s.learn_windows,
                                           s.learn_windows + s.query_windows);
  }

  double Loss(const DeepRestEstimator& m) const {
    return QuantileLoss(m, query, s.metrics, s.learn_windows,
                        s.learn_windows + s.query_windows);
  }
};

// ---- the accuracy budget ----

TEST(QuantizedInferenceTest, Fp16QuantileLossWithinOnePercentOfFp32) {
  TrainedFixture f;
  const double fp32_loss = f.Loss(f.model);
  ASSERT_GT(fp32_loss, 0.0);

  std::unique_ptr<DeepRestEstimator> compressed = f.model.Clone();
  ASSERT_NE(compressed, nullptr);
  compressed->CompressParametersToFp16();
  const double fp16_loss = f.Loss(*compressed);

  EXPECT_LE(fp16_loss, fp32_loss * 1.01)
      << "fp32 loss " << fp32_loss << " vs fp16 loss " << fp16_loss;
}

// ---- invariants that make fp16 storage deployable ----

TEST(QuantizedInferenceTest, RegistryFp16PolicyAppliesAtMutablePublish) {
  TrainedFixture f;
  // Oracle: what the model looks like after explicit compression.
  std::unique_ptr<DeepRestEstimator> compressed = f.model.Clone();
  compressed->CompressParametersToFp16();
  const double compressed_loss = f.Loss(*compressed);
  const double fp32_loss = f.Loss(f.model);

  ModelRegistry with_policy;
  with_policy.SetFp16Storage(true);
  EXPECT_TRUE(with_policy.fp16_storage());
  with_policy.Publish(f.model.Clone());
  ASSERT_TRUE(with_policy.Current().valid());
  EXPECT_EQ(f.Loss(*with_policy.Current().model), compressed_loss);

  // Policy off: the published model is installed verbatim.
  ModelRegistry without_policy;
  without_policy.Publish(f.model.Clone());
  EXPECT_EQ(f.Loss(*without_policy.Current().model), fp32_loss);
}

TEST(QuantizedInferenceTest, RestoreBypassesStoragePolicy) {
  TrainedFixture f;
  const double fp32_loss = f.Loss(f.model);
  ModelRegistry registry;
  registry.SetFp16Storage(true);
  // A checkpointed model is already immutable: Restore installs it as-is,
  // bit-for-bit what was on disk, policy notwithstanding.
  std::shared_ptr<const DeepRestEstimator> restored(f.model.Clone());
  ASSERT_TRUE(registry.Restore(restored, 7));
  EXPECT_EQ(f.Loss(*registry.Current().model), fp32_loss);
}

}  // namespace
}  // namespace deeprest

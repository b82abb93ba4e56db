// Bit-exactness of the packed batch-row-major forward (src/nn/batched.h +
// DeepRestEstimator::EstimateFromFeaturesBatch) against the elementary-op
// oracle (tests/testing/reference_graph.h) stepped one window at a time: its
// estimates, the warm-start state it computes at every mutation point, and
// the hidden trajectories it replays. "Bit-exact" is literal: every value
// must compare equal, across batch sizes, mixed series lengths, null
// entries, every ablation configuration, resumed cursors, and after every
// mutation point that must rebuild the packed inference weights.
#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/sim/simulator.h"
#include "tests/testing/reference_graph.h"

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

EstimateMap Reference(const DeepRestEstimator& model, const FeatureSeries& features) {
  return ReferenceGraph::EstimateFromFeaturesReference(model, features);
}

void ExpectSameEstimates(const EstimateMap& batch, const EstimateMap& reference) {
  ASSERT_EQ(batch.size(), reference.size());
  for (const auto& [key, estimate] : reference) {
    ASSERT_TRUE(batch.count(key)) << key.ToString();
    const auto& other = batch.at(key);
    EXPECT_EQ(other.expected, estimate.expected) << key.ToString();
    EXPECT_EQ(other.lower, estimate.lower) << key.ToString();
    EXPECT_EQ(other.upper, estimate.upper) << key.ToString();
  }
}

// Queries of cycling lengths so any batch mixes series lengths: rows that
// finish early and the falling active width are exercised at every batch
// size.
std::vector<FeatureSeries> MakeQueries(
    const DeepRestEstimator& model, const TinySetup& s, size_t count,
    const std::vector<size_t>& lengths = {8, 5, 12, 1, 3, 9, 2}) {
  std::vector<FeatureSeries> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t len = lengths[i % lengths.size()];
    const size_t from =
        std::min(s.learn_windows + (i % 7), s.learn_windows + s.query_windows - len);
    queries.push_back(model.features().ExtractSeries(s.traces, from, from + len));
  }
  return queries;
}

void ExpectBatchMatchesReference(const DeepRestEstimator& model,
                                 const std::vector<FeatureSeries>& queries) {
  std::vector<const FeatureSeries*> pointers;
  pointers.reserve(queries.size());
  for (const FeatureSeries& q : queries) {
    pointers.push_back(&q);
  }
  const std::vector<EstimateMap> batched = model.EstimateFromFeaturesBatch(pointers);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameEstimates(batched[i], Reference(model, queries[i]));
  }
}

TEST(BatchedInferenceTest, BitExactAcrossBatchSizes) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  // 3/4/5 and 17 put the attention GEMM's H·B (H = 8) and the gate GEMM's
  // rows on both sides of the 16-lane boundaries.
  for (const size_t batch : {1u, 2u, 3u, 4u, 5u, 7u, 16u, 17u, 33u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExpectBatchMatchesReference(model, MakeQueries(model, s, batch));
  }
  // The forward runs blocks of at most 8 (row, window) pairs. At widths
  // 1-3, series of 17 and 33 windows span several blocks and end one pair
  // into a block at width 1, and the mixed lengths make rows finish, so the
  // width changes, inside a block.
  const std::vector<std::vector<size_t>> block_lengths = {
      {17}, {33}, {33, 17}, {17, 33}, {5, 33, 17}, {33, 17, 9}};
  for (const std::vector<size_t>& lengths : block_lengths) {
    SCOPED_TRACE("block lengths, batch=" + std::to_string(lengths.size()) +
                 ", first=" + std::to_string(lengths.front()));
    ExpectBatchMatchesReference(model, MakeQueries(model, s, lengths.size(), lengths));
  }
}

TEST(BatchedInferenceTest, NullAndEmptyEntries) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());

  const std::vector<FeatureSeries> queries = MakeQueries(model, s, 3);
  const FeatureSeries empty;
  const std::vector<const FeatureSeries*> pointers = {&queries[0], nullptr, &empty,
                                                      &queries[1], nullptr, &queries[2]};
  const std::vector<EstimateMap> batched = model.EstimateFromFeaturesBatch(pointers);
  ASSERT_EQ(batched.size(), pointers.size());
  EXPECT_TRUE(batched[1].empty());
  EXPECT_TRUE(batched[4].empty());
  ExpectSameEstimates(batched[0], Reference(model, queries[0]));
  ExpectSameEstimates(batched[2], Reference(model, empty));
  ExpectSameEstimates(batched[3], Reference(model, queries[1]));
  ExpectSameEstimates(batched[5], Reference(model, queries[2]));
}

void ExpectCacheMatchesReplay(const DeepRestEstimator& model) {
  const std::vector<float> replayed = ReferenceGraph::ReplayWarmStart(model);
  const std::vector<float>& cached = ReferenceGraph::WarmStartCache(model);
  ASSERT_EQ(cached.size(), model.expert_count() * model.hidden_dim());
  ASSERT_EQ(cached.size(), replayed.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i], replayed[i]) << "expert " << i / model.hidden_dim() << " row "
                                      << i % model.hidden_dim();
  }
}

TEST(BatchedInferenceTest, BitExactUnderAblations) {
  const TinySetup s = MakeSetup();
  for (const auto& [name, config] : AblationGrid(FastConfig())) {
    SCOPED_TRACE(name);
    DeepRestEstimator model(config);
    model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
    ExpectCacheMatchesReplay(model);
    ExpectBatchMatchesReference(model, MakeQueries(model, s, 7));
  }
}

// HiddenTrajectories (Fig. 21) runs the packed forward from a zero state,
// one resumed window at a time; every float of every trajectory must match
// the elementary-op replay.
TEST(BatchedInferenceTest, HiddenTrajectoriesMatchReplayUnderAblations) {
  const TinySetup s = MakeSetup();
  for (const auto& [name, config] : AblationGrid(FastConfig())) {
    SCOPED_TRACE(name);
    DeepRestEstimator model(config);
    model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
    const FeatureSeries probe = model.features().ExtractSeries(
        s.traces, s.learn_windows - 20, s.learn_windows + s.query_windows);
    const auto packed = model.HiddenTrajectories(probe);
    const auto replayed = ReferenceGraph::HiddenTrajectoriesReference(model, probe);
    ASSERT_EQ(packed.size(), model.expert_count());
    ASSERT_EQ(packed.size(), replayed.size());
    for (const auto& [key, trajectory] : replayed) {
      ASSERT_TRUE(packed.count(key)) << key.ToString();
      EXPECT_EQ(trajectory.size(), probe.size() * model.hidden_dim()) << key.ToString();
      EXPECT_EQ(packed.at(key), trajectory) << key.ToString();
    }
  }
}

// Resumed cursors: each query is split at a different point and answered
// by two successive resumed calls in one batch; the concatenated series must
// be bit-identical to the one-pass reference. The last two queries, of 33
// and 21 windows, split at 9 and 19: the head call's rows end inside a
// block of the forward, and the tail call's blocks start off the one-pass
// block grid.
TEST(BatchedInferenceTest, ResumedSplitMatchesOnePass) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  std::vector<FeatureSeries> queries = MakeQueries(model, s, 5);
  std::vector<size_t> cuts;
  for (size_t i = 0; i < queries.size(); ++i) {
    cuts.push_back((i * 3) % (queries[i].size() + 1));
  }
  for (FeatureSeries& query : MakeQueries(model, s, 2, {33, 21})) {
    queries.push_back(std::move(query));
  }
  cuts.insert(cuts.end(), {9, 19});
  std::vector<FeatureSeries> heads, tails;
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t cut = cuts[i];
    heads.emplace_back(queries[i].begin(), queries[i].begin() + static_cast<ptrdiff_t>(cut));
    tails.emplace_back(queries[i].begin() + static_cast<ptrdiff_t>(cut), queries[i].end());
  }
  std::vector<DeepRestEstimator::StreamCursor> cursors(queries.size());
  std::vector<DeepRestEstimator::StreamCursor*> cursor_ptrs;
  std::vector<const FeatureSeries*> head_ptrs, tail_ptrs;
  for (size_t i = 0; i < queries.size(); ++i) {
    cursor_ptrs.push_back(&cursors[i]);
    head_ptrs.push_back(&heads[i]);
    tail_ptrs.push_back(&tails[i]);
  }
  const auto first = model.EstimateFromFeaturesBatchResume(head_ptrs, cursor_ptrs);
  const auto second = model.EstimateFromFeaturesBatchResume(tail_ptrs, cursor_ptrs);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    EXPECT_EQ(cursors[i].steps, queries[i].size());
    EstimateMap joined = first[i];
    for (auto& [key, estimate] : joined) {
      const ResourceEstimate& rest = second[i].at(key);
      estimate.expected.insert(estimate.expected.end(), rest.expected.begin(),
                               rest.expected.end());
      estimate.lower.insert(estimate.lower.end(), rest.lower.begin(), rest.lower.end());
      estimate.upper.insert(estimate.upper.end(), rest.upper.begin(), rest.upper.end());
    }
    ExpectSameEstimates(joined, Reference(model, queries[i]));
  }
}

bool AnyDifference(const EstimateMap& a, const EstimateMap& b) {
  for (const auto& [key, estimate] : a) {
    const ResourceEstimate& other = b.at(key);
    if (estimate.expected != other.expected || estimate.lower != other.lower ||
        estimate.upper != other.upper) {
      return true;
    }
  }
  return false;
}

// The packed inference weights are derived state: every mutation point must
// rebuild them, or the batched path silently keeps serving the old weights.
// After each mutation the warm-start state must match its replay and the
// batched answers must match the reference path (both read the live
// parameters), and the mutation must have changed the answers, so a stale
// pack cannot pass by accident.
TEST(BatchedInferenceTest, BitExactAfterEveryMutationPoint) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const std::vector<FeatureSeries> queries = MakeQueries(model, s, 4);
  const FeatureSeries& probe = queries[0];
  EstimateMap before = Reference(model, probe);
  const auto expect_fresh = [&](const DeepRestEstimator& m, const std::string& step) {
    SCOPED_TRACE(step);
    const EstimateMap now = Reference(m, probe);
    EXPECT_TRUE(AnyDifference(now, before)) << "mutation did not change the model";
    ExpectCacheMatchesReplay(m);
    ExpectBatchMatchesReference(m, queries);
    before = now;
  };

  model.ContinueLearning(s.traces, s.metrics, s.learn_windows,
                         s.learn_windows + s.query_windows, 2);
  expect_fresh(model, "ContinueLearning");

  EstimatorConfig donor_config = FastConfig();
  donor_config.seed = 11;
  DeepRestEstimator donor(donor_config);
  donor.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  ASSERT_GT(model.TransferRecurrentWeightsFrom(donor), 0u);
  expect_fresh(model, "TransferRecurrentWeightsFrom");

  model.CompressParametersToFp16();
  expect_fresh(model, "CompressParametersToFp16");

  // LoadFromStream over an already-trained model: the donor's weights must
  // replace the pack, not just the parameters.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(donor.SaveToStream(buffer));
  ASSERT_TRUE(model.LoadFromStream(buffer));
  expect_fresh(model, "LoadFromStream");
  ExpectSameEstimates(Reference(model, probe), Reference(donor, probe));

  const std::unique_ptr<DeepRestEstimator> clone = model.Clone();
  ASSERT_TRUE(clone->trained());
  {
    SCOPED_TRACE("Clone");
    ExpectBatchMatchesReference(*clone, queries);
    ExpectSameEstimates(Reference(*clone, probe), before);
  }
}

TEST(BatchedInferenceTest, WarmStartCacheMatchesReplayOracle) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  ExpectCacheMatchesReplay(model);

  // Fine-tuning appends learn history and retrains: the cache must follow.
  model.ContinueLearning(s.traces, s.metrics, s.learn_windows,
                         s.learn_windows + s.query_windows, 2);
  ExpectCacheMatchesReplay(model);
  ExpectBatchMatchesReference(model, MakeQueries(model, s, 7));
}

TEST(BatchedInferenceTest, CloneCarriesWarmStartCache) {
  const TinySetup s = MakeSetup();
  DeepRestEstimator model(FastConfig());
  model.Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  const std::unique_ptr<DeepRestEstimator> clone = model.Clone();
  ASSERT_TRUE(clone->trained());
  ExpectCacheMatchesReplay(*clone);
  const std::vector<FeatureSeries> queries = MakeQueries(model, s, 5);
  std::vector<const FeatureSeries*> pointers;
  for (const FeatureSeries& q : queries) {
    pointers.push_back(&q);
  }
  const auto original = model.EstimateFromFeaturesBatch(pointers);
  const auto cloned = clone->EstimateFromFeaturesBatch(pointers);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameEstimates(cloned[i], original[i]);
  }
}

}  // namespace
}  // namespace deeprest

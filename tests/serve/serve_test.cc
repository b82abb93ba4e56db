#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/core/sanity.h"
#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/sim/simulator.h"
#include "src/trace/span.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

// Same three-component application as the estimator tests: small enough that
// training a model (and fine-tuning its clones) takes milliseconds.
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
  size_t query_windows = 32;
  size_t total() const { return learn_windows + query_windows; }
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
  config.epochs = 12;
  config.bptt_chunk = 24;
  config.seed = 3;
  return config;
}

std::unique_ptr<DeepRestEstimator> TrainModel(const TinySetup& s) {
  auto model = std::make_unique<DeepRestEstimator>(FastConfig());
  model->Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  return model;
}

// Streams every trace and metric sample of [from, to) into the pipeline.
void IngestRange(IngestPipeline& pipeline, const TinySetup& s, size_t from, size_t to) {
  const auto keys = s.metrics.Keys();
  for (size_t w = from; w < to; ++w) {
    for (const Trace& trace : s.traces.TracesAt(w)) {
      pipeline.IngestTrace(w, trace);
    }
    for (const MetricKey& key : keys) {
      pipeline.IngestMetric(key, w, s.metrics.At(key, w));
    }
  }
}

// Bitwise equality: both sides must come from the same deterministic forward
// pass over the same weights, so every double matches exactly.
void ExpectSameEstimates(const EstimateMap& a, const EstimateMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, estimate] : a) {
    ASSERT_TRUE(b.count(key)) << key.ToString();
    const auto& other = b.at(key);
    EXPECT_EQ(estimate.expected, other.expected) << key.ToString();
    EXPECT_EQ(estimate.lower, other.lower) << key.ToString();
    EXPECT_EQ(estimate.upper, other.upper) << key.ToString();
  }
}

TEST(ModelRegistryTest, EmptyRegistryHasNoSnapshot) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Current().valid());
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.publish_count(), 0u);
}

TEST(ModelRegistryTest, PublishVersionsMonotonically) {
  ModelRegistry registry;
  auto first = std::make_shared<const DeepRestEstimator>();
  EXPECT_EQ(registry.Publish(first), 1u);
  const ModelSnapshot v1 = registry.Current();
  EXPECT_TRUE(v1.valid());
  EXPECT_EQ(v1.version, 1u);
  EXPECT_EQ(v1.model.get(), first.get());

  EXPECT_EQ(registry.Publish(std::make_unique<DeepRestEstimator>()), 2u);
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.Current().version, 2u);
  // The old snapshot's reader still holds version 1, untouched.
  EXPECT_EQ(v1.model.get(), first.get());
}

TEST(IngestPipelineTest, FoldReconstructsFeaturesAndMetricsExactly) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);

  IngestPipeline pipeline(fx, {.shards = 4});
  // Concurrent producers, interleaved windows.
  std::vector<std::thread> producers;
  const size_t kProducers = 3;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto keys = s.metrics.Keys();
      for (size_t w = p; w < s.total(); w += kProducers) {
        for (const Trace& trace : s.traces.TracesAt(w)) {
          pipeline.IngestTrace(w, trace);
        }
        for (const MetricKey& key : keys) {
          pipeline.IngestMetric(key, w, s.metrics.At(key, w));
        }
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(pipeline.WindowFrontier(), s.total());
  EXPECT_EQ(pipeline.total_traces(), s.traces.total_traces());

  EXPECT_EQ(pipeline.Fold(s.total()), s.total());
  EXPECT_EQ(pipeline.featured_windows(), s.total());
  EXPECT_EQ(pipeline.IngestLag(), 0u);

  // The incrementally maintained feature series must equal a from-scratch
  // extraction over the original collector.
  const auto expected = fx.ExtractSeries(s.traces, 0, s.total());
  const auto actual = pipeline.FeatureSlice(0, s.total());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(actual[w], expected[w]) << "window " << w;
  }

  const MetricsStore folded = pipeline.MetricsCopy();
  for (const MetricKey& key : s.metrics.Keys()) {
    for (size_t w = 0; w < s.total(); ++w) {
      EXPECT_DOUBLE_EQ(folded.At(key, w), s.metrics.At(key, w)) << key.ToString();
    }
  }
}

TEST(IngestPipelineTest, IncrementalFoldsMatchOneShotFold) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);

  IngestPipeline incremental(fx, {.shards = 2});
  for (size_t w = 0; w < s.total(); ++w) {
    IngestRange(incremental, s, w, w + 1);
    incremental.Fold(w + 1);
  }
  IngestPipeline one_shot(fx, {.shards = 2});
  IngestRange(one_shot, s, 0, s.total());
  one_shot.Fold(s.total());

  const auto a = incremental.FeatureSlice(0, s.total());
  const auto b = one_shot.FeatureSlice(0, s.total());
  ASSERT_EQ(a.size(), b.size());
  for (size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w], b[w]) << "window " << w;
  }
}

TEST(IngestPipelineTest, LateEventsFoldIntoTruthButNotFeatures) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);

  IngestPipeline pipeline(fx, {.shards = 2});
  IngestRange(pipeline, s, 0, 8);
  pipeline.Fold(8);  // seals windows [0, 8)
  const auto sealed = pipeline.FeatureSlice(0, 8);

  // A straggler trace for already-sealed window 2.
  pipeline.IngestTrace(2, s.traces.TracesAt(2).front());
  pipeline.Fold(8);
  EXPECT_EQ(pipeline.late_events(), 1u);
  // Ground truth grew by the late trace...
  size_t original = 0;
  for (size_t w = 0; w < 8; ++w) {
    original += s.traces.TracesAt(w).size();
  }
  EXPECT_EQ(pipeline.TracesCopy(0, 8).total_traces(), original + 1);
  // ...but the sealed features did not move.
  const auto after = pipeline.FeatureSlice(0, 8);
  for (size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(after[w], sealed[w]) << "window " << w;
  }
}

// Satellite: the const inference surface is multi-thread safe. Eight threads
// hammering EstimateFromFeatures must each reproduce the single-threaded
// result bit for bit.
TEST(ConcurrentInferenceTest, EightThreadsMatchSingleThreaded) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const EstimateMap reference = model->EstimateFromFeatures(features);

  constexpr size_t kThreads = 8;
  std::vector<EstimateMap> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = model->EstimateFromFeatures(features); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    ExpectSameEstimates(results[t], reference);
  }
}

TEST(EstimationServiceTest, ConcurrentRequestsNeverMixModelVersions) {
  TinySetup s = MakeSetup();
  auto v1_model = TrainModel(s);
  const auto features = v1_model->features().ExtractSeries(s.traces, s.learn_windows, s.total());

  // v2 = fine-tuned clone; compute both single-threaded references up front.
  std::unique_ptr<DeepRestEstimator> v2_model = v1_model->Clone();
  ASSERT_NE(v2_model, nullptr);
  v2_model->ContinueLearning(s.traces, s.metrics, s.learn_windows, s.total(), 2);
  const EstimateMap ref_v1 = v1_model->EstimateFromFeatures(features);
  const EstimateMap ref_v2 = v2_model->EstimateFromFeatures(features);

  ModelRegistry registry;
  IngestPipeline pipeline(v1_model->features(), {.shards = 2});
  registry.Publish(std::move(v1_model));

  EstimationServiceConfig config;
  config.workers = 4;
  config.max_batch = 4;
  EstimationService service(registry, pipeline, config);

  // Clients submit while the main thread hot-swaps v2 mid-run.
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::vector<std::future<EstimationService::EstimateResult>> futures(kClients * kPerClient);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        futures[c * kPerClient + i] = service.SubmitFeatures(features);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  registry.Publish(std::move(v2_model));
  for (auto& client : clients) {
    client.join();
  }

  size_t v1_served = 0;
  size_t v2_served = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    // Every result must be bit-identical to exactly one version's reference:
    // a batch serves all of its requests from one snapshot, so no request
    // can observe weights from two versions.
    if (result.model_version == 1) {
      ++v1_served;
      ExpectSameEstimates(result.estimates, ref_v1);
    } else {
      ASSERT_EQ(result.model_version, 2u);
      ++v2_served;
      ExpectSameEstimates(result.estimates, ref_v2);
    }
  }
  EXPECT_EQ(v1_served + v2_served, kClients * kPerClient);

  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_served, kClients * kPerClient);
  EXPECT_EQ(counters.model_version, 2u);
}

// Mode-1 requests are answered from the synthesizer's compiled shape counts.
// Two clients and two workers run while a fine-tuned Clone is published:
// every result must equal, bit for bit, the trace-path oracle (synthesize,
// extract, batched forward) of the model version that served it.
TEST(EstimationServiceTest, ServedTrafficMatchesTraceOracleAcrossHotSwap) {
  TinySetup s = MakeSetup();
  auto v1_model = TrainModel(s);
  std::unique_ptr<DeepRestEstimator> v2_model = v1_model->Clone();
  ASSERT_NE(v2_model, nullptr);
  v2_model->ContinueLearning(s.traces, s.metrics, s.learn_windows, s.total(), 2);

  constexpr size_t kClients = 2;
  constexpr size_t kPerClient = 10;
  struct Query {
    TrafficSeries traffic;
    uint64_t seed = 0;
    EstimateMap oracle[2];  // per model version
  };
  std::vector<Query> queries(kClients * kPerClient);
  const DeepRestEstimator* versions[2] = {v1_model.get(), v2_model.get()};
  Rng rng(21);
  for (size_t r = 0; r < queries.size(); ++r) {
    // 0.5-3x the usual rates.
    const double scale = 0.5 + 0.5 * static_cast<double>(r % 6);
    TrafficSeries traffic = RandomTraffic(6, rng.NextU64());
    for (size_t w = 0; w < traffic.windows(); ++w) {
      for (size_t a = 0; a < traffic.api_count(); ++a) {
        traffic.set_rate(w, a, traffic.rate(w, a) * scale);
      }
    }
    queries[r].traffic = std::move(traffic);
    queries[r].seed = rng.NextU64();
    for (size_t v = 0; v < 2; ++v) {
      Rng oracle_rng(queries[r].seed);
      TraceCollector synthetic;
      versions[v]->synthesizer().SynthesizeSeries(queries[r].traffic, 0, oracle_rng, synthetic);
      const auto series =
          versions[v]->features().ExtractSeries(synthetic, 0, queries[r].traffic.windows());
      queries[r].oracle[v] = versions[v]->EstimateFromFeaturesBatch({&series})[0];
    }
  }

  ModelRegistry registry;
  IngestPipeline pipeline(v1_model->features(), {.shards = 2});
  registry.Publish(std::move(v1_model));
  EstimationServiceConfig config;
  config.workers = 2;
  config.max_batch = 4;
  EstimationService service(registry, pipeline, config);

  std::atomic<size_t> submitted{0};
  std::atomic<bool> published{false};
  std::vector<std::future<EstimationService::EstimateResult>> futures(queries.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        if (i + 1 == kPerClient) {
          // Each client's last request goes in after the publish: v2 serves it.
          while (!published.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        const size_t r = c * kPerClient + i;
        futures[r] = service.SubmitTraffic(queries[r].traffic, queries[r].seed);
        if (r == 0) {
          futures[r].wait();
        }
        submitted.fetch_add(1, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Publish mid-run, once half the requests are in. Client 1 alone stops one
  // short of that, so request 0 is in and already answered by v1.
  while (submitted.load(std::memory_order_acquire) < kPerClient) {
    std::this_thread::yield();
  }
  registry.Publish(std::move(v2_model));
  published.store(true, std::memory_order_release);
  for (auto& client : clients) {
    client.join();
  }

  size_t served[2] = {0, 0};
  for (size_t r = 0; r < queries.size(); ++r) {
    const auto result = futures[r].get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    ASSERT_TRUE(result.model_version == 1 || result.model_version == 2);
    ++served[result.model_version - 1];
    ExpectSameEstimates(result.estimates, queries[r].oracle[result.model_version - 1]);
  }
  EXPECT_GE(served[0], 1u);
  EXPECT_GE(served[1], kClients);
}

TEST(EstimationServiceTest, MicroBatchingCoalescesBackedUpQueue) {
  TinySetup s = MakeSetup();
  ModelRegistry registry;
  auto model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  // One worker, held at the start gate until all 64 requests are queued:
  // the backlog must drain in full batches, whatever the submission timing.
  testutil::StartGate gate;
  EstimationServiceConfig config;
  config.workers = 1;
  config.max_batch = 8;
  config.worker_fault_hook = gate.Hook();
  EstimationService service(registry, pipeline, config);

  std::vector<std::future<EstimationService::EstimateResult>> futures;
  futures.reserve(64);
  for (size_t i = 0; i < 64; ++i) {
    futures.push_back(service.SubmitFeatures(features));
  }
  gate.Open();
  for (auto& future : futures) {
    (void)future.get();
  }
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_served, 64u);
  EXPECT_GE(counters.max_batch_size, 2u);
  EXPECT_LE(counters.max_batch_size, config.max_batch);
  EXPECT_LT(counters.batches_dispatched, 64u);
  EXPECT_EQ(counters.batches_dispatched, 64u / config.max_batch);
}

TEST(EstimationServiceTest, SanityCheckMatchesDirectChecker) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  IngestRange(pipeline, s, 0, s.total());
  pipeline.Fold(s.total());
  const DeepRestEstimator* raw_model = model.get();
  registry.Publish(std::move(model));

  EstimationService service(registry, pipeline);
  const auto result = service.SubmitSanityCheck(s.learn_windows, s.total()).get();
  EXPECT_EQ(result.model_version, 1u);
  EXPECT_EQ(result.from, s.learn_windows);
  EXPECT_EQ(result.to, s.total());

  const EstimateMap expected =
      raw_model->EstimateFromFeatures(pipeline.FeatureSlice(s.learn_windows, s.total()));
  const auto direct =
      SanityChecker().Detect(expected, pipeline.MetricsCopy(), s.learn_windows, s.total());
  ASSERT_EQ(result.events.size(), direct.size());
  for (size_t e = 0; e < direct.size(); ++e) {
    EXPECT_EQ(result.events[e].start_window, direct[e].start_window);
    EXPECT_EQ(result.events[e].end_window, direct[e].end_window);
    EXPECT_DOUBLE_EQ(result.events[e].peak_score, direct[e].peak_score);
  }
}

TEST(EstimationServiceTest, SanityCheckClampsToFeaturedWindows) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  IngestRange(pipeline, s, 0, s.learn_windows + 8);
  pipeline.Fold(s.learn_windows + 8);
  registry.Publish(std::move(model));

  EstimationService service(registry, pipeline);
  // Asks beyond the featured prefix; the service clamps instead of reading
  // unsealed windows.
  const auto result = service.SubmitSanityCheck(s.learn_windows, s.total()).get();
  EXPECT_EQ(result.to, s.learn_windows + 8);
}

TEST(EstimationServiceTest, UnpublishedRegistryYieldsVersionZero) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  ModelRegistry registry;
  IngestPipeline pipeline(fx, {.shards = 2});
  EstimationService service(registry, pipeline);
  const auto result = service.SubmitFeatures({{1.0f, 2.0f}}).get();
  EXPECT_EQ(result.model_version, 0u);
  EXPECT_TRUE(result.estimates.empty());
}

TEST(ContinualLearnerTest, RefreshOncePublishesFineTunedClone) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);

  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  const DeepRestEstimator* base = model.get();
  registry.Publish(std::move(model));

  ContinualLearnerConfig config;
  config.min_new_windows = 16;
  config.epochs = 2;
  ContinualLearner learner(registry, pipeline, s.learn_windows, config);

  // Nothing ingested yet: refresh must skip.
  EXPECT_EQ(learner.RefreshOnce(), 0u);
  EXPECT_EQ(registry.version(), 1u);

  IngestRange(pipeline, s, s.learn_windows, s.total());
  const uint64_t version = learner.RefreshOnce();
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(registry.version(), 2u);
  // Live watermark: the frontier window itself may still be receiving data.
  EXPECT_EQ(learner.trained_through(), s.total() - 1);

  const ModelSnapshot current = registry.Current();
  ASSERT_TRUE(current.valid());
  EXPECT_TRUE(current.model->trained());
  // The published refresh is a fine-tuned clone, not the base model: a clone
  // starts with a fresh loss history, so after the refresh it holds exactly
  // the fine-tuning epochs.
  EXPECT_NE(current.model.get(), base);
  EXPECT_EQ(current.model->epoch_losses().size(), config.epochs);

  // Not enough new windows since the last refresh: skip again.
  EXPECT_EQ(learner.RefreshOnce(), 0u);
  EXPECT_EQ(learner.refreshes_published(), 1u);
}

TEST(ContinualLearnerTest, BackgroundThreadPublishesWhileServing) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  registry.Publish(std::move(model));

  ContinualLearnerConfig learner_config;
  learner_config.min_new_windows = 8;
  learner_config.epochs = 1;
  learner_config.poll_interval = std::chrono::milliseconds(1);
  ContinualLearner learner(registry, pipeline, s.learn_windows, learner_config);

  EstimationServiceConfig service_config;
  service_config.workers = 2;
  EstimationService service(registry, pipeline, service_config);

  learner.Start();
  IngestRange(pipeline, s, s.learn_windows, s.total());
  // Keep requests in flight while the learner retrains and swaps.
  uint64_t last_version = 0;
  for (int spin = 0; spin < 2000 && registry.version() < 2; ++spin) {
    const auto result = service.SubmitFeatures(features).get();
    last_version = result.model_version;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  learner.Stop();
  EXPECT_GE(registry.version(), 2u);
  EXPECT_GE(learner.refreshes_published(), 1u);
  EXPECT_GE(last_version, 1u);
}

// --- Robustness: admission control and degraded-mode ingestion ---

TEST(IngestPipelineTest, RejectsBrokenTracesAtTheDoor) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  IngestPipeline pipeline(fx, {.shards = 2});

  Trace empty(1001, "/read");
  ASSERT_EQ(ValidateTrace(empty), TraceDefect::kEmpty);

  Trace negative(1002, "/read");
  negative.AddSpan("Frontend", "read", kNoParent);
  negative.SetSpanTiming(0, 1000, 400);  // ends before it starts
  ASSERT_EQ(ValidateTrace(negative), TraceDefect::kNegativeDuration);

  Trace backwards(1003, "/read");
  const SpanIndex root = backwards.AddSpan("Frontend", "read", kNoParent);
  const SpanIndex child = backwards.AddSpan("Worker", "get", root);
  backwards.SetSpanTiming(root, 500, 1500);
  backwards.SetSpanTiming(child, 100, 800);  // child starts before its parent
  ASSERT_EQ(ValidateTrace(backwards), TraceDefect::kNonMonotonicStart);

  EXPECT_FALSE(pipeline.IngestTrace(0, empty));
  EXPECT_FALSE(pipeline.IngestTrace(0, negative));
  EXPECT_FALSE(pipeline.IngestTrace(0, backwards));
  EXPECT_TRUE(pipeline.IngestTrace(0, s.traces.TracesAt(0).front()));
  // Rejected traces still advance the frontier: an all-garbage window must
  // seal (degraded), not stall the fold.
  EXPECT_EQ(pipeline.WindowFrontier(), 1u);
  EXPECT_EQ(pipeline.rejected_traces(), 3u);
  EXPECT_EQ(pipeline.total_traces(), 1u);

  pipeline.Fold(1);
  const auto quality = pipeline.QualitySlice(0, 1);
  ASSERT_EQ(quality.size(), 1u);
  // One of four observed arrivals survived admission control.
  EXPECT_DOUBLE_EQ(quality[0].trace_coverage, 0.25);
  EXPECT_TRUE(quality[0].degraded());
  // None of the rejected traces leaked into the ground-truth collector.
  EXPECT_EQ(pipeline.TracesCopy(0, 1).total_traces(), 1u);
}

TEST(IngestPipelineTest, DedupeDropsRedeliveredTraces) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  IngestPipelineConfig config;
  config.shards = 4;
  config.dedupe_traces = true;
  IngestPipeline pipeline(fx, config);

  const Trace& trace = s.traces.TracesAt(0).front();
  ASSERT_NE(trace.trace_id(), 0u);
  EXPECT_TRUE(pipeline.IngestTrace(0, trace));
  EXPECT_FALSE(pipeline.IngestTrace(0, trace));  // at-least-once re-delivery
  EXPECT_EQ(pipeline.total_traces(), 1u);
  EXPECT_EQ(pipeline.duplicate_traces(), 1u);
  EXPECT_EQ(pipeline.rejected_traces(), 0u);

  // With dedupe off (the default) the same re-delivery is accepted — offline
  // replay paths depend on that.
  IngestPipeline replay(fx, {.shards = 4});
  EXPECT_TRUE(replay.IngestTrace(0, trace));
  EXPECT_TRUE(replay.IngestTrace(0, trace));
  EXPECT_EQ(replay.total_traces(), 2u);
  EXPECT_EQ(replay.duplicate_traces(), 0u);
}

TEST(IngestPipelineTest, EmptyWindowImputesFeaturesAndDropsQuality) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  IngestPipeline pipeline(fx, {.shards = 2});

  const auto keys = s.metrics.Keys();
  for (size_t w = 0; w < 10; ++w) {
    if (w != 8) {  // window 8: collector outage, traces vanish entirely
      for (const Trace& trace : s.traces.TracesAt(w)) {
        pipeline.IngestTrace(w, trace);
      }
    }
    for (const MetricKey& key : keys) {
      pipeline.IngestMetric(key, w, s.metrics.At(key, w));
    }
  }
  pipeline.Fold(10);

  const auto features = pipeline.FeatureSlice(0, 10);
  const auto quality = pipeline.QualitySlice(0, 10);
  ASSERT_EQ(features.size(), 10u);
  // The empty window's features were carried forward from window 7, and the
  // window is flagged as untrustworthy rather than read as "zero traffic".
  EXPECT_EQ(features[8], features[7]);
  EXPECT_TRUE(quality[8].imputed);
  EXPECT_DOUBLE_EQ(quality[8].trace_coverage, 0.0);
  EXPECT_DOUBLE_EQ(quality[8].score, 0.0);
  EXPECT_EQ(pipeline.imputed_windows(), 1u);
  // Neighbors sealed at full quality.
  EXPECT_FALSE(quality[7].degraded());
  EXPECT_FALSE(quality[9].degraded());
}

TEST(IngestPipelineTest, MetricGapsAreCarriedForwardNotZero) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  IngestPipeline pipeline(fx, {.shards = 2});

  const auto keys = s.metrics.Keys();
  ASSERT_FALSE(keys.empty());
  const MetricKey gapped = keys.front();
  for (size_t w = 0; w < 4; ++w) {
    for (const Trace& trace : s.traces.TracesAt(w)) {
      pipeline.IngestTrace(w, trace);
    }
    for (const MetricKey& key : keys) {
      if (w == 2 && key == gapped) {
        continue;  // lost scrape
      }
      pipeline.IngestMetric(key, w, s.metrics.At(key, w));
    }
  }
  pipeline.Fold(4);

  // The missing scrape folded to the previous window's value, not a literal
  // zero the sanity checker would read as a crash.
  MetricsStore folded = pipeline.MetricsCopy();
  EXPECT_DOUBLE_EQ(folded.At(gapped, 2), s.metrics.At(gapped, 1));
  EXPECT_EQ(pipeline.imputed_metrics(), 1u);
  const auto quality = pipeline.QualitySlice(0, 4);
  EXPECT_LT(quality[2].metric_coverage, 1.0);
  EXPECT_GT(quality[2].metric_coverage, 0.0);
  EXPECT_FALSE(quality[1].degraded());

  // A late-arriving real sample replaces the imputation.
  pipeline.IngestMetric(gapped, 2, s.metrics.At(gapped, 2));
  pipeline.Fold(4);
  folded = pipeline.MetricsCopy();
  EXPECT_DOUBLE_EQ(folded.At(gapped, 2), s.metrics.At(gapped, 2));
}

// --- Robustness: overload protection and lifecycle ---

// Every enumerator has a distinct, non-"unknown" name, and the count
// constant is in lockstep with the enum — adding a status without naming it
// (or without bumping kRequestStatusCount) fails here.
TEST(RequestStatusTest, NameIsExhaustiveAndDistinct) {
  std::set<std::string> names;
  for (size_t i = 0; i < kRequestStatusCount; ++i) {
    const std::string name = RequestStatusName(static_cast<RequestStatus>(i));
    EXPECT_NE(name, "unknown") << "enumerator " << i << " is unnamed";
    EXPECT_FALSE(name.empty()) << "enumerator " << i;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate status name '" << name << "' at enumerator " << i;
  }
  // One past the end is the sentinel — if this is a real name, the count
  // constant lags the enum.
  EXPECT_STREQ(RequestStatusName(static_cast<RequestStatus>(kRequestStatusCount)),
               "unknown");
  EXPECT_EQ(names.count("hedged-duplicate"), 1u);
}

TEST(EstimationServiceTest, SubmitAfterStopReturnsRejected) {
  TinySetup s = MakeSetup();
  FeatureExtractor fx;
  fx.LearnRange(s.traces, 0, s.learn_windows);
  ModelRegistry registry;
  IngestPipeline pipeline(fx, {.shards = 2});
  EstimationService service(registry, pipeline);
  service.Stop();

  const auto estimate = service.SubmitFeatures({{1.0f, 2.0f}}).get();
  EXPECT_EQ(estimate.status, RequestStatus::kRejectedStopped);
  EXPECT_TRUE(estimate.estimates.empty());
  const auto sanity = service.SubmitSanityCheck(0, 8).get();
  EXPECT_EQ(sanity.status, RequestStatus::kRejectedStopped);
  EXPECT_TRUE(sanity.events.empty());

  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_submitted, 2u);
  EXPECT_EQ(counters.requests_rejected, 2u);
  EXPECT_EQ(counters.requests_served, 0u);
}

TEST(EstimationServiceTest, BoundedQueueShedsUnderOverload) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const EstimateMap reference = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  EstimationServiceConfig config;
  config.workers = 1;  // submissions far outpace serving
  config.max_batch = 1;
  config.max_queue = 2;
  EstimationService service(registry, pipeline, config);

  constexpr size_t kRequests = 48;
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  futures.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitFeatures(features));
  }
  size_t ok = 0;
  size_t shed = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (result.status == RequestStatus::kOk) {
      ++ok;
      // Shedding must not perturb accepted results: bit-exact vs. the
      // single-threaded reference.
      ExpectSameEstimates(result.estimates, reference);
    } else {
      ASSERT_EQ(result.status, RequestStatus::kShed);
      ++shed;
    }
  }
  // The queue stayed bounded: some requests were shed, none were lost, and
  // every future resolved.
  EXPECT_GT(shed, 0u) << RequestStatusName(RequestStatus::kShed);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + shed, kRequests);
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_submitted, kRequests);
  EXPECT_EQ(counters.requests_served, ok);
  EXPECT_EQ(counters.requests_shed, shed);
  EXPECT_EQ(counters.queue_depth, 0u);
}

TEST(EstimationServiceTest, DeadlineExpiresQueuedRequests) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));

  EstimationServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  EstimationService service(registry, pipeline, config);

  // Head-of-line blocker: a very long series with no deadline keeps the
  // single worker busy well past the queued requests' budgets.
  std::vector<std::vector<float>> huge;
  huge.reserve(features.size() * 200);
  for (size_t repeat = 0; repeat < 200; ++repeat) {
    huge.insert(huge.end(), features.begin(), features.end());
  }
  auto head = service.SubmitFeatures(std::move(huge));

  constexpr size_t kQueued = 8;
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  futures.reserve(kQueued);
  for (size_t i = 0; i < kQueued; ++i) {
    futures.push_back(service.SubmitFeatures(features, std::chrono::milliseconds(1)));
  }

  EXPECT_EQ(head.get().status, RequestStatus::kOk);
  size_t expired = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (result.status == RequestStatus::kExpired) {
      ++expired;
      EXPECT_TRUE(result.estimates.empty());  // no forward pass was spent
    } else {
      EXPECT_EQ(result.status, RequestStatus::kOk);
    }
  }
  EXPECT_GT(expired, 0u);
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_expired, expired);
  EXPECT_EQ(counters.requests_submitted, kQueued + 1);
}

}  // namespace
}  // namespace deeprest

// Streamful serving through the tiered state cache, and the ModelRegistry
// retained-clone tier: split-vs-unsplit bit-exactness (including states that
// round-trip through the disk slab between requests), model-version warm
// restarts, and the Restore-vs-retention purge invariants.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/estimation_service.h"
#include "src/serve/model_registry.h"
#include "src/serve/state_cache.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

using testutil::ExpectSameEstimates;
using testutil::MakeSetup;
using testutil::TinySetup;
using testutil::TrainModel;

std::vector<std::vector<std::vector<float>>> SplitSeries(
    const std::vector<std::vector<float>>& series, size_t chunks) {
  std::vector<std::vector<std::vector<float>>> out(chunks);
  const size_t per = (series.size() + chunks - 1) / chunks;
  for (size_t i = 0; i < series.size(); ++i) {
    out[std::min(i / per, chunks - 1)].push_back(series[i]);
  }
  return out;
}

TEST(RegistryRetentionTest, DisplacedClonesAreRetainedAndRematerialized) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> m1(TrainModel(s).release());
  std::shared_ptr<const DeepRestEstimator> m2(TrainModel(s).release());
  std::shared_ptr<const DeepRestEstimator> m3(TrainModel(s).release());

  InMemorySnapshotStore store;
  ModelRegistry registry;
  registry.SetRetention(&store, /*max_retained=*/2);
  EXPECT_EQ(registry.Publish(m1), 1u);  // nothing displaced yet
  EXPECT_EQ(registry.Publish(m2), 2u);  // retains v1
  EXPECT_EQ(registry.Publish(m3), 3u);  // retains v2
  const auto counters = registry.retention_counters();
  EXPECT_EQ(counters.retained, 2u);
  EXPECT_GT(counters.retained_bytes, 0u);

  // A retained clone rematerializes to the same estimates, bit for bit
  // (fp32 serialization round trip).
  const ModelSnapshot old_snapshot = registry.Snapshot(1);
  ASSERT_TRUE(old_snapshot.valid());
  EXPECT_EQ(old_snapshot.version, 1u);
  const auto features =
      m1->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  ExpectSameEstimates(m1->EstimateFromFeatures(features),
                      old_snapshot.model->EstimateFromFeatures(features));
  EXPECT_EQ(registry.retention_counters().retain_hits, 1u);

  // Snapshot(current) is the live model, no store involved.
  EXPECT_EQ(registry.Snapshot(3).model.get(), m3.get());
  // An unretained version is a counted miss, never wrong data.
  EXPECT_FALSE(registry.Snapshot(99).valid());
  EXPECT_EQ(registry.retention_counters().retain_misses, 1u);
}

TEST(RegistryRetentionTest, MaxRetainedEvictsOldestVersion) {
  const TinySetup s = MakeSetup();
  InMemorySnapshotStore store;
  ModelRegistry registry;
  registry.SetRetention(&store, /*max_retained=*/1);
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  const auto counters = registry.retention_counters();
  EXPECT_EQ(counters.retained, 1u);
  EXPECT_EQ(counters.retain_evictions, 1u);
  EXPECT_FALSE(registry.Snapshot(1).valid());
  EXPECT_TRUE(registry.Snapshot(2).valid());
}

// Satellite invariant: a checkpoint Restore while clones sit in the cold
// tier must purge them (no stale-expert resurrection) and release the
// store's budget charge exactly once (no double count).
TEST(RegistryRetentionTest, RestorePurgesColdTieredClonesWithoutDoubleCount) {
  const TinySetup s = MakeSetup();
  MemoryBudget budget(size_t{64} << 20);
  InMemorySnapshotStore store(size_t{64} << 20, &budget);
  ModelRegistry registry;
  registry.SetRetention(&store, /*max_retained=*/4);
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  ASSERT_EQ(registry.retention_counters().retained, 2u);
  ASSERT_GT(budget.used(), 0u);

  // Restore a newer checkpointed model: every pre-restore clone is purged.
  std::shared_ptr<const DeepRestEstimator> restored(TrainModel(s).release());
  ASSERT_TRUE(registry.Restore(restored, /*version=*/10));
  EXPECT_EQ(registry.retention_counters().retained, 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_EQ(budget.used(), 0u);  // released exactly once, not twice
  EXPECT_FALSE(registry.Snapshot(1).valid());  // stale experts stay dead
  EXPECT_FALSE(registry.Snapshot(2).valid());

  // Retention keeps working after the restore: the next publish retains the
  // restored model under its own (restored) version.
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  EXPECT_EQ(registry.version(), 11u);
  EXPECT_TRUE(registry.Snapshot(10).valid());
  EXPECT_EQ(registry.retention_counters().retained, 1u);
}

TEST(RegistryRetentionTest, RestoreBelowCurrentVersionStillFails) {
  const TinySetup s = MakeSetup();
  InMemorySnapshotStore store;
  ModelRegistry registry;
  registry.SetRetention(&store, 4);
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  registry.Publish(std::shared_ptr<const DeepRestEstimator>(TrainModel(s).release()));
  std::shared_ptr<const DeepRestEstimator> stale(TrainModel(s).release());
  EXPECT_FALSE(registry.Restore(stale, 1));
  EXPECT_EQ(registry.retention_counters().retained, 1u);  // untouched
}

// A series split across N stream requests must produce, chunk by chunk,
// exactly what direct EstimateFromFeaturesBatchResume calls produce on a
// private cursor — even with a hot tier too small to hold the stream, so the
// state round-trips through the disk slab between requests (bit-exact).
TEST(StreamServingTest, SplitSeriesMatchesDirectResumeThroughDiskTier) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model(TrainModel(s).release());
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const auto chunks = SplitSeries(features, 4);

  ModelRegistry registry;
  registry.Publish(model);
  IngestPipeline pipeline(model->features(), {.shards = 2});

  StateCacheConfig cache_config;
  cache_config.hot_bytes = 64;  // smaller than one entry: evict on release
  cache_config.cold_tier = ColdTier::kDisk;
  cache_config.slab_path = ::testing::TempDir() + "stream_serving_slab.bin";
  cache_config.slab_slot_payload_bytes = 1 << 14;
  cache_config.slab_slots = 256;
  StateCache cache(cache_config);
  ASSERT_TRUE(cache.disk_ok());

  EstimationServiceConfig config;
  config.workers = 1;  // deterministic request order
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  DeepRestEstimator::StreamCursor direct_cursor;
  for (const auto& chunk : chunks) {
    const std::vector<const std::vector<std::vector<float>>*> batch = {&chunk};
    const std::vector<DeepRestEstimator::StreamCursor*> cursors = {&direct_cursor};
    const EstimateMap direct = model->EstimateFromFeaturesBatchResume(batch, cursors)[0];
    auto result = service.SubmitStreamFeatures(1, chunk).get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    ExpectSameEstimates(direct, result.estimates);
  }
  const ServiceCounters counters = service.Counters();
  EXPECT_TRUE(counters.state_cache_attached);
  // The tiny hot tier forced the stream through the slab between requests.
  EXPECT_GT(counters.state_spills, 0u);
  EXPECT_GT(counters.state_cold_hits, 0u);
  service.Stop();
  std::remove(cache_config.slab_path.c_str());
}

// Two interleaved streams, each bit-exact against its own private cursor:
// leases keep the per-stream states isolated even through shared batches.
TEST(StreamServingTest, InterleavedStreamsStayIsolated) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model(TrainModel(s).release());
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const auto chunks = SplitSeries(features, 4);

  ModelRegistry registry;
  registry.Publish(model);
  IngestPipeline pipeline(model->features(), {.shards = 2});
  StateCacheConfig cache_config;
  cache_config.hot_bytes = 1 << 20;
  StateCache cache(cache_config);
  EstimationServiceConfig config;
  config.workers = 1;
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  // Stream A consumes chunks 0..3; stream B consumes the same series with
  // the chunk payloads reversed, so the two states diverge immediately.
  DeepRestEstimator::StreamCursor cursor_a;
  DeepRestEstimator::StreamCursor cursor_b;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const auto& chunk_a = chunks[i];
    const auto& chunk_b = chunks[chunks.size() - 1 - i];
    const EstimateMap direct_a = model->EstimateFromFeaturesBatchResume(
        {&chunk_a}, {&cursor_a})[0];
    const EstimateMap direct_b = model->EstimateFromFeaturesBatchResume(
        {&chunk_b}, {&cursor_b})[0];
    auto future_a = service.SubmitStreamFeatures(100, chunk_a);
    auto future_b = service.SubmitStreamFeatures(200, chunk_b);
    const auto result_a = future_a.get();
    const auto result_b = future_b.get();
    ASSERT_EQ(result_a.status, RequestStatus::kOk);
    ASSERT_EQ(result_b.status, RequestStatus::kOk);
    ExpectSameEstimates(direct_a, result_a.estimates);
    ExpectSameEstimates(direct_b, result_b.estimates);
  }
  service.Stop();
}

// Duplicate-stream requests coalesced into ONE batch must still advance the
// stream sequentially (the rounds path), matching back-to-back direct calls.
TEST(StreamServingTest, DuplicateStreamRequestsInOneBatchRunSequentially) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model(TrainModel(s).release());
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const auto chunks = SplitSeries(features, 4);

  ModelRegistry registry;
  registry.Publish(model);
  IngestPipeline pipeline(model->features(), {.shards = 2});
  StateCacheConfig cache_config;
  cache_config.hot_bytes = 1 << 20;
  StateCache cache(cache_config);
  testutil::StartGate gate;
  EstimationServiceConfig config;
  config.workers = 1;
  config.max_batch = 8;
  config.worker_fault_hook = gate.Hook();
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  DeepRestEstimator::StreamCursor direct_cursor;
  std::vector<EstimateMap> direct;
  direct.reserve(chunks.size());
  for (const auto& chunk : chunks) {
    direct.push_back(
        model->EstimateFromFeaturesBatchResume({&chunk}, {&direct_cursor})[0]);
  }
  // Submit all four chunks while the start gate holds the one worker: they
  // coalesce into its first batch, and the rounds logic must serialize them.
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  for (const auto& chunk : chunks) {
    futures.push_back(service.SubmitStreamFeatures(7, chunk));
  }
  gate.Open();
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    ExpectSameEstimates(direct[i], result.estimates);
  }
  EXPECT_EQ(service.Counters().max_batch_size, chunks.size());
  service.Stop();
}

// A model hot-swap between stream requests warm-restarts the stream (the
// old hidden state is meaningless under new weights) and counts the reset.
TEST(StreamServingTest, ModelSwapWarmRestartsStream) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> v1(TrainModel(s).release());
  auto v2_mutable = TrainModel(s);
  v2_mutable->CompressParametersToFp16();  // make v2 observably different
  std::shared_ptr<const DeepRestEstimator> v2(v2_mutable.release());
  const auto features =
      v1->features().ExtractSeries(s.traces, s.learn_windows, s.total());
  const auto chunks = SplitSeries(features, 2);

  ModelRegistry registry;
  registry.Publish(v1);
  IngestPipeline pipeline(v1->features(), {.shards = 2});
  StateCacheConfig cache_config;
  cache_config.hot_bytes = 1 << 20;
  StateCache cache(cache_config);
  EstimationServiceConfig config;
  config.workers = 1;
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  ASSERT_EQ(service.SubmitStreamFeatures(3, chunks[0]).get().status,
            RequestStatus::kOk);
  registry.Publish(v2);
  // The second chunk runs on v2 from a FRESH cursor, not v1's carried state.
  DeepRestEstimator::StreamCursor fresh;
  const EstimateMap expected =
      v2->EstimateFromFeaturesBatchResume({&chunks[1]}, {&fresh})[0];
  const auto result = service.SubmitStreamFeatures(3, chunks[1]).get();
  ASSERT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.model_version, 2u);
  ExpectSameEstimates(expected, result.estimates);
  EXPECT_EQ(service.Counters().state_resets, 1u);
  service.Stop();
}

// Stateless requests keep working unchanged next to stream requests, and a
// stream id without a wired cache degrades to the stateless path.
TEST(StreamServingTest, StatelessRequestsRideAlong) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model(TrainModel(s).release());
  const auto features =
      model->features().ExtractSeries(s.traces, s.learn_windows, s.total());

  ModelRegistry registry;
  registry.Publish(model);
  IngestPipeline pipeline(model->features(), {.shards = 2});
  StateCacheConfig cache_config;
  StateCache cache(cache_config);
  EstimationServiceConfig config;
  config.workers = 1;
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  const EstimateMap direct = model->EstimateFromFeatures(features);
  // Plain stateless submission next to a stream request in the same service.
  auto stream_future = service.SubmitStreamFeatures(5, features);
  auto plain_future = service.SubmitFeatures(features);
  ExpectSameEstimates(direct, plain_future.get().estimates);
  ExpectSameEstimates(direct, stream_future.get().estimates);
  service.Stop();

  // No cache wired: the stream id is dropped at submission, stateless path.
  EstimationService bare(registry, pipeline, {});
  ExpectSameEstimates(direct, bare.SubmitStreamFeatures(5, features).get().estimates);
  EXPECT_FALSE(bare.Counters().state_cache_attached);
  bare.Stop();
}

}  // namespace
}  // namespace deeprest

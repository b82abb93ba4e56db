// Sharded-queue semantics under concurrency (run under TSan via the
// chaos-tsan preset): the per-worker shards with round-robin submission and
// work stealing must preserve the service contract exactly — bounded
// capacity that sheds the newcomer, per-request deadlines, kRejectedStopped
// after Stop, drain-on-Stop — and must never lose a request: every submitted
// future resolves with a terminal status and the counters balance.
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "tests/serve/test_app.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

using testutil::MakeSetup;
using testutil::TinySetup;
using testutil::TrainModel;

struct Tally {
  size_t ok = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t rejected = 0;
  size_t total() const { return ok + shed + expired + rejected; }
};

Tally Resolve(std::vector<std::future<EstimationService::EstimateResult>>& futures) {
  Tally tally;
  for (auto& future : futures) {
    switch (future.get().status) {
      case RequestStatus::kOk:
        ++tally.ok;
        break;
      case RequestStatus::kShed:
        ++tally.shed;
        break;
      case RequestStatus::kExpired:
        ++tally.expired;
        break;
      case RequestStatus::kRejectedStopped:
        ++tally.rejected;
        break;
      case RequestStatus::kHedgedDuplicate:
        // No path produces this status, but the tally must stay exhaustive
        // so new statuses can't silently vanish.
        break;
    }
  }
  return tally;
}

void ExpectBalanced(const ServiceCounters& counters) {
  EXPECT_EQ(counters.requests_submitted, counters.requests_served + counters.requests_shed +
                                             counters.requests_expired +
                                             counters.requests_rejected);
}

TEST(ShardedQueueTest, ConcurrentSubmitAndHotSwapLosesNothing) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(model);
  EstimationServiceConfig config;
  config.workers = 4;
  config.max_batch = 4;
  EstimationService service(registry, pipeline, config);

  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows,
                                                        s.learn_windows + 4);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 24;
  std::vector<std::vector<std::future<EstimationService::EstimateResult>>> futures(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(service.SubmitFeatures(features));
      }
    });
  }
  // Hot swaps race the submissions: shard pickup must keep one snapshot per
  // batch regardless of which shard a request landed on.
  std::thread swapper([&] {
    for (int i = 0; i < 3; ++i) {
      registry.Publish(model->Clone());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& submitter : submitters) {
    submitter.join();
  }
  swapper.join();

  Tally tally;
  for (auto& per_thread : futures) {
    const Tally t = Resolve(per_thread);
    tally.ok += t.ok;
    tally.shed += t.shed;
    tally.expired += t.expired;
    tally.rejected += t.rejected;
  }
  EXPECT_EQ(tally.total(), kThreads * kPerThread);
  EXPECT_EQ(tally.ok, kThreads * kPerThread);  // no bound, no deadline: all served
  service.Stop();
  ExpectBalanced(service.Counters());
  EXPECT_EQ(service.Counters().queue_depth, 0u);
}

TEST(ShardedQueueTest, BoundedQueueShedsUnderConcurrentBurst) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows,
                                                        s.learn_windows + 4);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(model);
  EstimationServiceConfig config;
  config.workers = 2;
  config.max_batch = 2;
  config.max_queue = 4;
  EstimationService service(registry, pipeline, config);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 32;
  std::vector<std::vector<std::future<EstimationService::EstimateResult>>> futures(kThreads);
  std::vector<std::thread> submitters;
  // The bound is exact (slot reservation before any push), so a sampler
  // racing the burst must never observe depth above max_queue.
  std::atomic<bool> sampling{true};
  size_t max_depth_seen = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      max_depth_seen = std::max(max_depth_seen, service.Counters().queue_depth);
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        // Every third request carries a tight deadline so expiry interleaves
        // with shedding on the sharded queues.
        const auto deadline = i % 3 == 2 ? std::chrono::milliseconds(1)
                                         : std::chrono::milliseconds(0);
        futures[t].push_back(service.SubmitFeatures(features, deadline));
      }
    });
  }
  for (auto& submitter : submitters) {
    submitter.join();
  }
  sampling.store(false);
  sampler.join();
  EXPECT_LE(max_depth_seen, config.max_queue);
  Tally tally;
  for (auto& per_thread : futures) {
    const Tally t = Resolve(per_thread);
    tally.ok += t.ok;
    tally.shed += t.shed;
    tally.expired += t.expired;
    tally.rejected += t.rejected;
  }
  // Every request resolved with a terminal status; the burst far exceeds
  // the bound, so some were shed; nothing was rejected (no Stop yet).
  EXPECT_EQ(tally.total(), kThreads * kPerThread);
  EXPECT_GT(tally.ok, 0u);
  EXPECT_GT(tally.shed, 0u);
  EXPECT_EQ(tally.rejected, 0u);
  service.Stop();
  ExpectBalanced(service.Counters());
  EXPECT_EQ(service.Counters().queue_depth, 0u);
}

TEST(ShardedQueueTest, StopRacingSubmitsResolvesEveryFuture) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model = TrainModel(s);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(model);
  EstimationServiceConfig config;
  config.workers = 3;
  config.max_batch = 4;
  EstimationService service(registry, pipeline, config);

  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows,
                                                        s.learn_windows + 2);
  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 16;
  std::vector<std::vector<std::future<EstimationService::EstimateResult>>> futures(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(service.SubmitFeatures(features));
      }
    });
  }
  go.store(true);
  // Stop lands mid-burst: everything accepted before the flag flips is
  // drained and served, everything after resolves kRejectedStopped.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Stop();
  for (auto& submitter : submitters) {
    submitter.join();
  }
  Tally tally;
  for (auto& per_thread : futures) {
    const Tally t = Resolve(per_thread);
    tally.ok += t.ok;
    tally.shed += t.shed;
    tally.expired += t.expired;
    tally.rejected += t.rejected;
  }
  EXPECT_EQ(tally.total(), kThreads * kPerThread);
  EXPECT_EQ(tally.shed, 0u);  // unbounded queue: shedding impossible
  ExpectBalanced(service.Counters());
  EXPECT_EQ(service.Counters().queue_depth, 0u);

  // Submit-after-Stop stays well-defined on the sharded queues.
  EXPECT_EQ(service.SubmitFeatures(features).get().status, RequestStatus::kRejectedStopped);
}

// Regression for a shutdown race: a worker's exit decision used to read the
// stop flag *after* checking its own shard, so a push that raced the flag
// could land in an already-swept shard and strand its future forever. Many
// short-lived services with Stop landing immediately behind the submissions
// maximize the chance of hitting that window; every future must still reach
// a terminal status (a hang here, not a failed expectation, is the bug).
TEST(ShardedQueueTest, ImmediateStopUnderFireStrandsNothing) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model = TrainModel(s);
  const auto features = model->features().ExtractSeries(s.traces, s.learn_windows,
                                                        s.learn_windows + 2);
  constexpr int kRounds = 40;
  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 6;
  for (int round = 0; round < kRounds; ++round) {
    ModelRegistry registry;
    IngestPipeline pipeline(model->features(), {.shards = 2});
    registry.Publish(model);
    EstimationServiceConfig config;
    config.workers = 3;
    config.max_batch = 2;
    EstimationService service(registry, pipeline, config);

    std::vector<std::vector<std::future<EstimationService::EstimateResult>>> futures(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        while (!go.load()) {
          std::this_thread::yield();
        }
        for (size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(service.SubmitFeatures(features));
        }
      });
    }
    go.store(true);
    service.Stop();  // no grace period: lands right on top of the burst
    for (auto& submitter : submitters) {
      submitter.join();
    }
    size_t resolved = 0;
    for (auto& per_thread : futures) {
      for (auto& future : per_thread) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(20)), std::future_status::ready)
            << "stranded request in round " << round;
        const auto status = future.get().status;
        EXPECT_TRUE(status == RequestStatus::kOk || status == RequestStatus::kRejectedStopped)
            << RequestStatusName(status);
        ++resolved;
      }
    }
    EXPECT_EQ(resolved, kThreads * kPerThread);
    ExpectBalanced(service.Counters());
    EXPECT_EQ(service.Counters().queue_depth, 0u);
  }
}

// Every batch runs one batch-row-major pass; the sequential reference path
// is the oracle. Mixed-length requests on two workers at max_batch 4 share
// passes in which shorter queries retire early, and every served result must
// still match the reference bit for bit. The start gate holds the workers
// until every request is queued, so the batches fill up instead of
// depending on submission timing.
TEST(ShardedQueueTest, MixedLengthBatchesMatchReferenceBitExactly) {
  const TinySetup s = MakeSetup();
  std::shared_ptr<const DeepRestEstimator> model = TrainModel(s);
  std::vector<std::vector<std::vector<float>>> series;
  for (size_t i = 0; i < 12; ++i) {
    const size_t from = s.learn_windows + i % 5;
    const size_t length = 1 + (i * 7) % 9;  // 1..9 windows, mixed within each shard
    series.push_back(model->features().ExtractSeries(s.traces, from, from + length));
  }
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(model);
  testutil::StartGate gate;
  EstimationServiceConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.worker_fault_hook = gate.Hook();
  EstimationService service(registry, pipeline, config);
  std::vector<std::future<EstimationService::EstimateResult>> futures;
  for (const auto& features : series) {
    futures.push_back(service.SubmitFeatures(features));
  }
  gate.Open();
  for (size_t i = 0; i < series.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto result = futures[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    testutil::ExpectSameEstimates(
        result.estimates, ReferenceGraph::EstimateFromFeaturesReference(*model, series[i]));
  }
  EXPECT_GT(service.Counters().max_batch_size, 1u);
}

}  // namespace
}  // namespace deeprest

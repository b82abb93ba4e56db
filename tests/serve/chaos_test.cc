// Chaos tests: telemetry fault injection against the full serving stack.
//
// The hard requirement (DESIGN.md "Failure model"): with >=10% trace drop /
// duplication / corruption and 5% metric gaps plus a full collector outage,
// the serving stack must (a) not crash, (b) keep its bookkeeping exact,
// (c) raise ZERO false anomaly alarms on degraded-but-honest telemetry, and
// (d) keep the estimation error against a clean-telemetry run inside a
// documented bound (25% WAPE on expected consumption).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sanity.h"
#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/sim/fault_injector.h"
#include "tests/serve/test_app.h"

namespace deeprest {
namespace {

using testutil::IngestRange;
using testutil::MakeSetup;
using testutil::RandomTraffic;
using testutil::TinySetup;
using testutil::TrainModel;

// Mean absolute difference of the expected-consumption series, normalized by
// the clean run's magnitude, averaged over resources: the "how wrong did
// chaos make the estimates" number the error bound is stated against.
double EstimateDivergence(const EstimateMap& chaos, const EstimateMap& clean) {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& [key, clean_estimate] : clean) {
    const auto it = chaos.find(key);
    if (it == chaos.end()) {
      continue;
    }
    const size_t n = std::min(clean_estimate.expected.size(), it->second.expected.size());
    double abs_err = 0.0;
    double abs_clean = 0.0;
    for (size_t t = 0; t < n; ++t) {
      abs_err += std::fabs(it->second.expected[t] - clean_estimate.expected[t]);
      abs_clean += std::fabs(clean_estimate.expected[t]);
    }
    sum += abs_err / std::max(abs_clean, 1e-9);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

TEST(FaultInjectorTest, DeterministicForFixedSeedAndSequence) {
  TinySetup s = MakeSetup();
  FaultInjectorConfig config;
  config.seed = 11;
  config.drop_prob = 0.2;
  config.duplicate_prob = 0.2;
  config.corrupt_prob = 0.1;
  config.truncate_prob = 0.1;
  config.delay_prob = 0.1;
  config.metric_gap_prob = 0.1;
  FaultInjector a(config);
  FaultInjector b(config);

  const auto keys = s.metrics.Keys();
  for (size_t w = 0; w < 8; ++w) {
    for (const Trace& trace : s.traces.TracesAt(w)) {
      const auto da = a.ProcessTrace(w, trace);
      const auto db = b.ProcessTrace(w, trace);
      ASSERT_EQ(da.size(), db.size());
      for (size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].window, db[i].window);
        EXPECT_EQ(da[i].trace.size(), db[i].trace.size());
      }
    }
    for (const MetricKey& key : keys) {
      EXPECT_EQ(a.ProcessMetric(key, w, 1.0), b.ProcessMetric(key, w, 1.0));
    }
  }
  const FaultCounters ca = a.counters();
  const FaultCounters cb = b.counters();
  EXPECT_EQ(ca.dropped, cb.dropped);
  EXPECT_EQ(ca.corrupted, cb.corrupted);
  EXPECT_EQ(ca.duplicated, cb.duplicated);
  EXPECT_EQ(ca.delayed, cb.delayed);
  EXPECT_EQ(ca.metric_gaps, cb.metric_gaps);
  // With these rates over hundreds of traces every fault class must fire.
  EXPECT_GT(ca.dropped, 0u);
  EXPECT_GT(ca.corrupted, 0u);
  EXPECT_GT(ca.duplicated, 0u);
  EXPECT_GT(ca.metric_gaps, 0u);
}

TEST(FaultInjectorTest, OutageWindowsLoseTheirEntireTraceStream) {
  TinySetup s = MakeSetup();
  FaultInjectorConfig config;
  config.seed = 5;
  config.outage_start = 2;
  config.outage_end = 4;
  FaultInjector injector(config);
  for (size_t w = 0; w < 6; ++w) {
    const auto& traces = s.traces.TracesAt(w);
    size_t delivered = 0;
    for (const Trace& trace : traces) {
      delivered += injector.ProcessTrace(w, trace).size();
    }
    if (w >= 2 && w < 4) {
      EXPECT_EQ(delivered, 0u) << "outage window " << w;
    } else {
      EXPECT_EQ(delivered, traces.size()) << "window " << w;
    }
  }
}

// A degraded window must deviate proportionally harder before it alarms: a
// deviation that fires at full quality is suppressed at half quality.
TEST(SanityQualityTest, LowQualityWindowsWidenTolerance) {
  const size_t n = 12;
  MetricKey key{"Frontend", ResourceKind::kCpu};
  ResourceEstimate estimate;
  estimate.expected.assign(n, 10.0);
  estimate.lower.assign(n, 9.0);
  estimate.upper.assign(n, 11.0);
  EstimateMap estimates;
  estimates[key] = estimate;

  MetricsStore metrics;
  for (size_t w = 0; w < n; ++w) {
    // Windows 4..6 sit moderately outside the interval (score ~1.5 with the
    // default normalization) — anomalous at full quality.
    metrics.Record(key, w, (w >= 4 && w < 7) ? 14.0 : 10.0);
  }

  SanityChecker checker;
  const auto raw = checker.Detect(estimates, metrics, 0, n);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].start_window, 4u);

  // Same data, but those windows are known-degraded (quality 0.5): with the
  // default widen factor the score drops below threshold — no false alarm.
  std::vector<double> quality(n, 1.0);
  quality[4] = quality[5] = quality[6] = 0.5;
  const auto widened = checker.Detect(estimates, metrics, 0, n, quality);
  EXPECT_TRUE(widened.empty());

  // Full-quality windows are unaffected by the quality vector.
  const auto full = checker.Detect(estimates, metrics, 0, n, std::vector<double>(n, 1.0));
  ASSERT_EQ(full.size(), 1u);
  EXPECT_DOUBLE_EQ(full[0].peak_score, raw[0].peak_score);
}

// The headline chaos test: deterministic single-producer chaos stream so the
// assertions can be exact.
TEST(ChaosTest, ChaosIngestionBoundsErrorAndRaisesNoFalseAlarms) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  const DeepRestEstimator* raw_model = model.get();

  // Clean reference: the same live phase with perfect telemetry.
  IngestPipeline clean(model->features(), {.shards = 1});
  IngestRange(clean, s, 0, s.total());
  clean.Fold(s.total());
  const EstimateMap clean_estimates =
      raw_model->EstimateFromFeatures(clean.FeatureSlice(s.learn_windows, s.total()));

  // Chaos stream: >=10% drop, >=10% duplication, 10% corruption, 5% metric
  // gaps, plus a two-window collector outage in the middle of the live phase.
  FaultInjectorConfig fault_config;
  fault_config.seed = 7;
  fault_config.drop_prob = 0.10;
  fault_config.duplicate_prob = 0.10;
  fault_config.corrupt_prob = 0.10;
  fault_config.metric_gap_prob = 0.05;
  fault_config.outage_start = s.learn_windows + 12;
  fault_config.outage_end = s.learn_windows + 14;
  FaultInjector injector(fault_config);

  IngestPipelineConfig pipeline_config;
  pipeline_config.shards = 2;
  pipeline_config.dedupe_traces = true;  // chaos duplicates; drop re-deliveries
  IngestPipeline chaos(model->features(), pipeline_config);

  // Learn phase arrives clean (the model was trained on it); the live phase
  // goes through the injector.
  IngestRange(chaos, s, 0, s.learn_windows);
  const auto keys = s.metrics.Keys();
  size_t live_traces_in = 0;
  for (size_t w = s.learn_windows; w < s.total(); ++w) {
    for (const Trace& trace : s.traces.TracesAt(w)) {
      ++live_traces_in;
      for (auto& delivery : injector.ProcessTrace(w, trace)) {
        chaos.IngestTrace(delivery.window, std::move(delivery.trace));
      }
    }
    for (const MetricKey& key : keys) {
      const double value = s.metrics.At(key, w);
      if (injector.ProcessMetric(key, w, value)) {
        chaos.IngestMetric(key, w, value);
      }
    }
  }
  chaos.Fold(s.total());

  // (a) every fault class fired, and (b) the bookkeeping is exact: every
  // delivered live event was accepted, rejected at the door, or deduplicated.
  const FaultCounters faults = injector.counters();
  EXPECT_GT(faults.dropped, 0u);
  EXPECT_GT(faults.corrupted, 0u);
  EXPECT_GT(faults.duplicated, 0u);
  EXPECT_GT(faults.metric_gaps, 0u);
  EXPECT_EQ(faults.traces_in, live_traces_in);
  size_t learn_traces = 0;
  for (size_t w = 0; w < s.learn_windows; ++w) {
    learn_traces += s.traces.TracesAt(w).size();
  }
  EXPECT_EQ(chaos.total_traces() + chaos.rejected_traces() + chaos.duplicate_traces(),
            learn_traces + faults.delivered);

  // Degraded-mode repair kicked in and was recorded honestly.
  EXPECT_GE(chaos.imputed_windows(), 2u);  // both outage windows
  EXPECT_GT(chaos.imputed_metrics(), 0u);
  const auto quality = chaos.QualitySlice(s.learn_windows, s.total());
  EXPECT_LT(MinQuality(quality), 1.0);
  size_t degraded = 0;
  for (const DataQuality& q : quality) {
    degraded += q.degraded() ? 1 : 0;
  }
  EXPECT_GT(degraded, 0u);

  // (c) zero false anomalies: the traffic is honest, only the telemetry is
  // degraded — the quality-aware sanity check must stay silent.
  ModelRegistry registry;
  registry.Publish(std::move(model));
  EstimationService service(registry, chaos);
  const auto sanity = service.SubmitSanityCheck(s.learn_windows, s.total()).get();
  EXPECT_EQ(sanity.status, RequestStatus::kOk);
  EXPECT_LT(sanity.min_quality, 1.0);
  EXPECT_TRUE(sanity.events.empty())
      << "false anomaly on degraded-but-honest telemetry, peak score "
      << sanity.events.front().peak_score;

  // (d) documented error bound: estimates from the chaos-ingested features
  // stay within 25% (normalized absolute divergence) of the clean run.
  const EstimateMap chaos_estimates =
      raw_model->EstimateFromFeatures(chaos.FeatureSlice(s.learn_windows, s.total()));
  const double divergence = EstimateDivergence(chaos_estimates, clean_estimates);
  EXPECT_GT(divergence, 0.0);  // chaos did perturb the features
  EXPECT_LT(divergence, 0.25) << "chaos-run estimates diverged past the documented bound";
}

// Multi-threaded chaos: concurrent producers through one injector, clients
// hammering the service, and the continual learner hot-swapping models — the
// TSan target. Interleaving is nondeterministic, so this asserts structural
// invariants, not exact counters.
TEST(ChaosTest, ConcurrentChaosServingIsStable) {
  TinySetup s = MakeSetup();
  auto model = TrainModel(s);
  ModelRegistry registry;
  IngestPipelineConfig pipeline_config;
  pipeline_config.shards = 4;
  pipeline_config.dedupe_traces = true;
  IngestPipeline pipeline(model->features(), pipeline_config);
  registry.Publish(std::move(model));

  ContinualLearnerConfig learner_config;
  learner_config.min_new_windows = 16;
  learner_config.epochs = 1;
  learner_config.poll_interval = std::chrono::milliseconds(1);
  ContinualLearner learner(registry, pipeline, s.learn_windows, learner_config);
  learner.Start();

  EstimationServiceConfig service_config;
  service_config.workers = 2;
  service_config.max_batch = 4;
  service_config.max_queue = 64;
  EstimationService service(registry, pipeline, service_config);

  FaultInjectorConfig fault_config;
  fault_config.seed = 13;
  fault_config.drop_prob = 0.10;
  fault_config.duplicate_prob = 0.10;
  fault_config.corrupt_prob = 0.05;
  fault_config.delay_prob = 0.05;
  fault_config.metric_gap_prob = 0.05;
  FaultInjector injector(fault_config);

  std::atomic<bool> producing{true};
  std::vector<std::thread> producers;
  const size_t kProducers = 3;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto keys = s.metrics.Keys();
      for (size_t w = s.learn_windows + p; w < s.total(); w += kProducers) {
        for (const Trace& trace : s.traces.TracesAt(w)) {
          for (auto& delivery : injector.ProcessTrace(w, trace)) {
            pipeline.IngestTrace(delivery.window, std::move(delivery.trace));
          }
        }
        for (const MetricKey& key : keys) {
          const double value = s.metrics.At(key, w);
          if (injector.ProcessMetric(key, w, value)) {
            pipeline.IngestMetric(key, w, value);
          }
        }
      }
    });
  }

  std::atomic<size_t> responses{0};
  std::thread client([&] {
    Rng rng(99);
    size_t round = 0;
    // Runs until the producers are done AND at least one response came back:
    // producers that finish before the client's first check must not leave
    // the run without a single request.
    while (producing.load(std::memory_order_acquire) ||
           responses.load(std::memory_order_relaxed) == 0) {
      if (++round % 3 == 0 && pipeline.featured_windows() > s.learn_windows + 4) {
        const auto result =
            service.SubmitSanityCheck(s.learn_windows, pipeline.featured_windows()).get();
        ASSERT_TRUE(result.status == RequestStatus::kOk || result.status == RequestStatus::kShed);
        responses.fetch_add(1, std::memory_order_relaxed);
      } else {
        const auto result =
            service.SubmitTraffic(RandomTraffic(4, rng.NextU64()), rng.NextU64()).get();
        ASSERT_TRUE(result.status == RequestStatus::kOk || result.status == RequestStatus::kShed);
        responses.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& producer : producers) {
    producer.join();
  }
  producing.store(false, std::memory_order_release);
  client.join();
  learner.Stop();
  pipeline.Fold(pipeline.WindowFrontier());

  service.Stop();
  // Submit-after-Stop under concurrent teardown resolves, never hangs.
  const auto rejected = service.SubmitSanityCheck(s.learn_windows, s.total()).get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejectedStopped);

  // Bookkeeping invariants despite nondeterministic interleaving.
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.requests_submitted, counters.requests_served + counters.requests_shed +
                                             counters.requests_expired +
                                             counters.requests_rejected);
  EXPECT_GT(responses.load(), 0u);
  const FaultCounters faults = injector.counters();
  EXPECT_EQ(pipeline.total_traces() + pipeline.rejected_traces() + pipeline.duplicate_traces(),
            faults.delivered);
}

}  // namespace
}  // namespace deeprest

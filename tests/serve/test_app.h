// Shared fixture for the serve-layer tests: the same tiny three-component
// application the serve tests train on, small enough that models train in
// milliseconds, and a start gate that makes queued requests batch.
#ifndef TESTS_SERVE_TEST_APP_H_
#define TESTS_SERVE_TEST_APP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/sim/simulator.h"

namespace deeprest {
namespace testutil {

inline Application TinyApp() {
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

inline TrafficSeries RandomTraffic(size_t windows, uint64_t seed) {
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

inline TinySetup MakeSetup(uint64_t seed = 1) {
  TinySetup s;
  Simulator sim(s.app, {.seed = seed});
  sim.Run(RandomTraffic(s.learn_windows, seed), 0, &s.traces, &s.metrics);
  sim.Run(RandomTraffic(s.query_windows, seed + 100), s.learn_windows, &s.traces, &s.metrics);
  return s;
}

inline EstimatorConfig FastConfig() {
  EstimatorConfig config;
  config.hidden_dim = 8;
  config.epochs = 12;
  config.bptt_chunk = 24;
  config.seed = 3;
  return config;
}

inline std::unique_ptr<DeepRestEstimator> TrainModel(const TinySetup& s) {
  auto model = std::make_unique<DeepRestEstimator>(FastConfig());
  model->Learn(s.traces, s.metrics, 0, s.learn_windows, s.app.MetricCatalog());
  return model;
}

// Streams every trace and metric sample of [from, to) into the pipeline.
inline void IngestRange(IngestPipeline& pipeline, const TinySetup& s, size_t from, size_t to) {
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
inline void ExpectSameEstimates(const EstimateMap& a, const EstimateMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, estimate] : a) {
    ASSERT_TRUE(b.count(key)) << key.ToString();
    const auto& other = b.at(key);
    EXPECT_EQ(estimate.expected, other.expected) << key.ToString();
    EXPECT_EQ(estimate.lower, other.lower) << key.ToString();
    EXPECT_EQ(estimate.upper, other.upper) << key.ToString();
  }
}

// Holds every worker of a service at the top of its first sweep, in the
// chaos hook, until Open(). Requests submitted before Open() are all queued
// when the workers wake, so each worker's first batch takes up to max_batch
// of them whatever the submission timing. Install with
// `config.worker_fault_hook = gate.Hook()`; the gate must outlive the
// service, and Open() must run before the service stops.
class StartGate {
 public:
  std::function<WorkerFault(size_t)> Hook() {
    return [this](size_t) {
      open_.wait(false);
      return WorkerFault::kNone;
    };
  }
  void Open() {
    open_.store(true);
    open_.notify_all();
  }

 private:
  std::atomic<bool> open_{false};
};

}  // namespace testutil
}  // namespace deeprest

#endif  // TESTS_SERVE_TEST_APP_H_

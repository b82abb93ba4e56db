// Every metric the benchmark reports, with its unit and, for a per-layer
// metric, the layer it belongs to, the end-to-end metric it should move and
// the workload it should move it on. BENCHMARK.json lists the same names;
// tests/bench_math_test.cc checks that the two agree.
#ifndef E2EBENCH_METRICS_LIST_H_
#define E2EBENCH_METRICS_LIST_H_

#include <vector>

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
  const char* layer;     // module the metric measures ("" for end-to-end)
  const char* moves;     // end-to-end metric it should move
  const char* workload;  // workload where that should show
};

inline const std::vector<MetricSpec>& AllMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // End to end (untraced run).
      {"setup_s", "s", false, "", "", "all"},
      {"latency_p50_ms", "ms", false, "", "", "all"},
      {"ok_ratio", "ratio", false, "", "", "all"},
      {"train_s", "s", false, "", "", "all"},
      {"cpu_mape", "%", false, "", "", "all"},
      {"peak_rss_mb", "MB", false, "", "", "all"},
      // serve (estimation_service)
      {"serve.submit_us.p50", "us", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.submit_us.p99", "us", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.batch_mean", "count", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.batches", "count", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.queue_depth.max", "count", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.overhead_ms.p50", "ms", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.overhead_ms.p99", "ms", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.snapshot_us", "us", true, "serve", "latency_p50_ms", "features_open"},
      {"serve.capacity_rps", "1/s", true, "serve", "latency_p50_ms", "features_open"},
      // nn forward (estimator batched path) and kernels (matrix, simd)
      {"nn.forward_ms_per_req", "ms", true, "nn.forward", "latency_p50_ms", "features_open"},
      {"nn.forward_b1_ms", "ms", true, "nn.forward", "latency_p50_ms", "features_open"},
      {"nn.forward_b16_ms_per_req", "ms", true, "nn.forward", "latency_p50_ms", "features_open"},
      {"nn.forward_gflops", "GFLOP/s", true, "nn.forward", "latency_p50_ms", "features_open"},
      {"nn.gemm_gflops", "GFLOP/s", true, "nn.kernels", "latency_p50_ms", "features_open"},
      // core.synth (trace_synthesizer), core.extract (feature_extractor)
      {"core.synth_ms_per_req", "ms", true, "core.synth", "latency_p50_ms", "traffic_plan"},
      {"core.synth_traces_per_s", "1/s", true, "core.synth", "latency_p50_ms", "traffic_plan"},
      {"core.extract_ms_per_req", "ms", true, "core.extract", "latency_p50_ms", "traffic_plan"},
      {"core.extract_traces_per_s", "1/s", true, "core.extract", "latency_p50_ms", "traffic_plan"},
      // core.sanity
      {"core.detect_ms", "ms", true, "core.sanity", "latency_p50_ms", "live_monitor"},
      // core.train (estimator Learn / ContinueLearning)
      {"core.train_epoch_s", "s", true, "core.train", "train_s", "learn_estimate"},
      {"core.train_windows_per_s", "1/s", true, "core.train", "train_s", "learn_estimate"},
      {"core.train_share", "ratio", true, "core.train", "train_s", "learn_estimate"},
      // ingest (ingest_pipeline)
      {"ingest.trace_us.p50", "us", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.trace_us.p99", "us", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.metric_us.p50", "us", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.fold_ms_per_window", "ms", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.slice_ms", "ms", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.metrics_copy_ms", "ms", true, "ingest", "latency_p50_ms", "live_monitor"},
      {"ingest.lag_windows.max", "count", true, "ingest", "latency_p50_ms", "live_monitor"},
      // state (state_cache)
      {"state.hit_rate", "ratio", true, "state", "latency_p50_ms", "live_monitor"},
      {"state.evictions", "count", true, "state", "latency_p50_ms", "live_monitor"},
      {"state.spills", "count", true, "state", "latency_p50_ms", "live_monitor"},
      {"state.drops", "count", true, "state", "peak_rss_mb", "live_monitor"},
      {"state.resident_mb", "MB", true, "state", "peak_rss_mb", "live_monitor"},
      // registry / learner
      {"registry.publish_ms", "ms", true, "registry", "latency_p50_ms", "live_monitor"},
      {"learner.refresh_ms", "ms", true, "learner", "latency_p50_ms", "live_monitor"},
      {"learner.rejected", "count", true, "learner", "latency_p50_ms", "live_monitor"},
      // sim (simulator)
      {"sim.windows_per_s", "1/s", true, "sim", "setup_s", "all"},
      // open-loop client and request accounting
      {"client.latency_p99_ms", "ms", true, "client", "latency_p50_ms", "features_open"},
      {"client.gen_late_ms.p50", "ms", true, "client", "latency_p50_ms", "all"},
      {"client.gen_late_ms.p99", "ms", true, "client", "latency_p50_ms", "all"},
      {"requests.sent", "count", true, "client", "ok_ratio", "all"},
      {"requests.ok", "count", true, "client", "ok_ratio", "all"},
      {"requests.shed", "count", true, "client", "ok_ratio", "all"},
      {"requests.expired", "count", true, "client", "ok_ratio", "all"},
      {"requests.rejected", "count", true, "client", "ok_ratio", "all"},
      {"trace_overhead_pct", "%", true, "tracer", "latency_p50_ms", "all"},
  };
  return kMetrics;
}

}  // namespace e2ebench

#endif  // E2EBENCH_METRICS_LIST_H_

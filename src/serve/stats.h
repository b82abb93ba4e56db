// Per-service counters for the online estimation service.
//
// ServiceStats is the thread-safe recorder the service and its workers write
// into; ServiceCounters is the plain snapshot struct handed to callers (and
// rendered by `deeprest serve`). Latencies are kept as raw samples (capped)
// so the percentiles are exact rather than bucketed.
#ifndef SRC_SERVE_STATS_H_
#define SRC_SERVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/thread_annotations.h"

namespace deeprest {

// Immutable snapshot of the service's lifetime counters.
struct ServiceCounters {
  uint64_t requests_submitted = 0;
  uint64_t requests_served = 0;
  uint64_t estimate_requests = 0;
  uint64_t sanity_requests = 0;
  // Overload / fault handling (see DESIGN.md "Failure model"):
  uint64_t requests_shed = 0;      // rejected by the bounded queue
  uint64_t requests_expired = 0;   // deadline passed before serving
  uint64_t requests_rejected = 0;  // submitted after Stop()
  uint64_t batches_dispatched = 0;
  size_t max_batch_size = 0;
  double mean_batch_size = 0.0;
  size_t queue_depth = 0;  // at snapshot time
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  size_t ingest_lag_windows = 0;  // ingested but not yet featured
  // Ingest admission control / degraded-mode repair (from IngestPipeline):
  uint64_t traces_rejected = 0;      // failed validation at the door
  uint64_t traces_deduplicated = 0;  // duplicate deliveries dropped
  uint64_t imputed_windows = 0;      // feature vectors carried forward
  uint64_t renormalized_windows = 0; // API mix rescaled to expected volume
  uint64_t imputed_metrics = 0;      // metric gaps carry-forward filled
  uint64_t models_published = 0;  // registry swap count
  uint64_t model_version = 0;     // currently served version
  // Supervision (watchdog-driven recovery; see supervisor.h):
  uint64_t worker_stalls = 0;    // injected stalls observed by workers
  uint64_t worker_crashes = 0;   // worker threads that exited on a fault
  uint64_t worker_restarts = 0;  // successful RestartWorker revivals
  // Soft-memory tiered stream-state cache (state_cache.h). Rows render only
  // when a StateCache is wired into the service.
  bool state_cache_attached = false;
  uint64_t state_hot_hits = 0;     // streams resumed straight from the hot tier
  uint64_t state_cold_hits = 0;    // streams promoted from the fp16/disk tier
  uint64_t state_misses = 0;       // fresh streams + states lost cold-side
  uint64_t state_evictions = 0;    // hot-tier CLOCK demotions
  uint64_t state_spills = 0;       // disk-slab slot writes
  uint64_t state_drops = 0;        // states lost entirely (cold overflow etc.)
  uint64_t state_resets = 0;       // model-version-mismatch warm restarts
  size_t state_resident_bytes = 0; // hot + cold RAM held by the cache

  // Two-column "counter | value" table (rendered with eval/ascii elsewhere).
  std::vector<std::pair<std::string, std::string>> Rows() const;
};

// "12.5 MB" / "640.0 KB" — shared by the counter table and the CLI's
// budgeted-serving summary row.
std::string FormatBytes(size_t bytes);

// Thread-safe recorder. All methods may be called concurrently.
class ServiceStats {
 public:
  void RecordSubmitted();
  void RecordBatch(size_t batch_size);
  // One request completed; kind tallies and latency sample.
  void RecordServed(bool is_sanity, double latency_ms);
  // Overload outcomes: shed by the bounded queue, expired past its deadline,
  // or rejected because the service was already stopped.
  void RecordShed();
  void RecordExpired();
  void RecordRejected();
  // Supervision events.
  void RecordWorkerStall();
  void RecordWorkerCrash();
  void RecordWorkerRestart();
  // A stream's cached state was discarded because it was produced by an
  // older model version (warm restart on the new model).
  void RecordStateReset();

  // Counters accumulated so far. Queue depth / ingest lag / registry fields
  // are owned by other components; EstimationService::Counters() fills them.
  ServiceCounters Snapshot() const;

 private:
  mutable Mutex mu_;  // deeprest-lint: lock-level(leaf)
  uint64_t submitted_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t served_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t estimate_served_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t sanity_served_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t shed_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t expired_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t batches_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t batched_requests_ DEEPREST_GUARDED_BY(mu_) = 0;
  size_t max_batch_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t worker_stalls_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t worker_crashes_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t worker_restarts_ DEEPREST_GUARDED_BY(mu_) = 0;
  uint64_t state_resets_ DEEPREST_GUARDED_BY(mu_) = 0;
  // Capped at kMaxLatencySamples; feeds the p50/p99 snapshot fields.
  std::vector<double> latencies_ms_ DEEPREST_GUARDED_BY(mu_);
};

}  // namespace deeprest

#endif  // SRC_SERVE_STATS_H_

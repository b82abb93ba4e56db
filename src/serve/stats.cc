#include "src/serve/stats.h"

#include <algorithm>
#include <cstdio>

namespace deeprest {

namespace {

// Enough samples for exact p99 over any realistic bench run while bounding
// memory; past the cap new samples overwrite a rotating slot so long-running
// services keep a recent-ish population instead of freezing the percentiles.
constexpr size_t kMaxLatencySamples = 1 << 18;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank = std::min(samples.size() - 1,
                               static_cast<size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

std::string FormatCount(uint64_t v) { return std::to_string(v); }

std::string FormatMs(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f ms", v);
  return buffer;
}

}  // namespace

void ServiceStats::RecordSubmitted() {
  MutexLock lock(mu_);
  ++submitted_;
}

void ServiceStats::RecordBatch(size_t batch_size) {
  MutexLock lock(mu_);
  ++batches_;
  batched_requests_ += batch_size;
  max_batch_ = std::max(max_batch_, batch_size);
}

void ServiceStats::RecordServed(bool is_sanity, double latency_ms) {
  MutexLock lock(mu_);
  ++served_;
  if (is_sanity) {
    ++sanity_served_;
  } else {
    ++estimate_served_;
  }
  if (latencies_ms_.size() < kMaxLatencySamples) {
    latencies_ms_.push_back(latency_ms);
  } else {
    latencies_ms_[served_ % kMaxLatencySamples] = latency_ms;
  }
}

void ServiceStats::RecordShed() {
  MutexLock lock(mu_);
  ++shed_;
}

void ServiceStats::RecordExpired() {
  MutexLock lock(mu_);
  ++expired_;
}

void ServiceStats::RecordRejected() {
  MutexLock lock(mu_);
  ++rejected_;
}

void ServiceStats::RecordWorkerStall() {
  MutexLock lock(mu_);
  ++worker_stalls_;
}

void ServiceStats::RecordWorkerCrash() {
  MutexLock lock(mu_);
  ++worker_crashes_;
}

void ServiceStats::RecordWorkerRestart() {
  MutexLock lock(mu_);
  ++worker_restarts_;
}

void ServiceStats::RecordStateReset() {
  MutexLock lock(mu_);
  ++state_resets_;
}

ServiceCounters ServiceStats::Snapshot() const {
  MutexLock lock(mu_);
  ServiceCounters counters;
  counters.requests_submitted = submitted_;
  counters.requests_served = served_;
  counters.estimate_requests = estimate_served_;
  counters.sanity_requests = sanity_served_;
  counters.requests_shed = shed_;
  counters.requests_expired = expired_;
  counters.requests_rejected = rejected_;
  counters.batches_dispatched = batches_;
  counters.max_batch_size = max_batch_;
  counters.mean_batch_size =
      batches_ == 0 ? 0.0
                    : static_cast<double>(batched_requests_) / static_cast<double>(batches_);
  counters.p50_latency_ms = Percentile(latencies_ms_, 0.50);
  counters.p99_latency_ms = Percentile(latencies_ms_, 0.99);
  counters.worker_stalls = worker_stalls_;
  counters.worker_crashes = worker_crashes_;
  counters.worker_restarts = worker_restarts_;
  counters.state_resets = state_resets_;
  return counters;
}

std::string FormatBytes(size_t bytes) {
  char buffer[32];
  if (bytes >= (size_t{1} << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.1f MB",
                  static_cast<double>(bytes) / static_cast<double>(size_t{1} << 20));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f KB",
                  static_cast<double>(bytes) / 1024.0);
  }
  return buffer;
}

std::vector<std::pair<std::string, std::string>> ServiceCounters::Rows() const {
  char mean[32];
  std::snprintf(mean, sizeof(mean), "%.2f", mean_batch_size);
  std::vector<std::pair<std::string, std::string>> rows = {
      {"requests submitted", FormatCount(requests_submitted)},
      {"requests served", FormatCount(requests_served)},
      {"  estimate", FormatCount(estimate_requests)},
      {"  sanity check", FormatCount(sanity_requests)},
      {"requests shed", FormatCount(requests_shed)},
      {"requests expired", FormatCount(requests_expired)},
      {"requests rejected (stopped)", FormatCount(requests_rejected)},
      {"batches dispatched", FormatCount(batches_dispatched)},
      {"mean batch size", mean},
      {"max batch size", FormatCount(max_batch_size)},
      {"queue depth", FormatCount(queue_depth)},
      {"p50 latency", FormatMs(p50_latency_ms)},
      {"p99 latency", FormatMs(p99_latency_ms)},
      {"ingest lag (windows)", FormatCount(ingest_lag_windows)},
      {"traces rejected", FormatCount(traces_rejected)},
      {"traces deduplicated", FormatCount(traces_deduplicated)},
      {"imputed windows", FormatCount(imputed_windows)},
      {"imputed metric samples", FormatCount(imputed_metrics)},
      {"models published", FormatCount(models_published)},
      {"serving model version", FormatCount(model_version)},
      {"worker stalls", FormatCount(worker_stalls)},
      {"worker crashes", FormatCount(worker_crashes)},
      {"worker restarts", FormatCount(worker_restarts)},
  };
  if (state_cache_attached) {
    rows.emplace_back("stream-state hot hits", FormatCount(state_hot_hits));
    rows.emplace_back("stream-state cold hits", FormatCount(state_cold_hits));
    rows.emplace_back("stream-state misses", FormatCount(state_misses));
    rows.emplace_back("stream-state evictions", FormatCount(state_evictions));
    rows.emplace_back("stream-state spills", FormatCount(state_spills));
    rows.emplace_back("stream-state drops", FormatCount(state_drops));
    rows.emplace_back("stream-state version resets", FormatCount(state_resets));
    rows.emplace_back("stream-state resident", FormatBytes(state_resident_bytes));
  }
  return rows;
}

}  // namespace deeprest

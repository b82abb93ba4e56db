#include "src/serve/ingest_pipeline.h"

#include <algorithm>
#include <cassert>

namespace deeprest {

IngestPipeline::IngestPipeline(FeatureExtractor extractor, const IngestPipelineConfig& config)
    : extractor_(std::move(extractor)), config_(config) {
  const size_t shard_count = std::max<size_t>(1, config.shards);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

IngestPipeline::Shard& IngestPipeline::ShardForTrace(const Trace& trace) {
  if (config_.dedupe_traces && trace.trace_id() != 0) {
    // Dedup needs a given trace_id to always land on the same shard, so the
    // shard-local seen set is authoritative for that id.
    return *shards_[trace.trace_id() % shards_.size()];
  }
  // Traces are self-contained events: any shard works, so spread them
  // round-robin to keep producer contention low regardless of trace_id
  // distribution.
  const size_t index = next_trace_shard_.fetch_add(1, std::memory_order_relaxed);
  return *shards_[index % shards_.size()];
}

IngestPipeline::Shard& IngestPipeline::ShardForKey(const MetricKey& key) {
  // Metric samples use Record (set) semantics, so a given series must always
  // land on the same shard for the accumulate-fold to reconstruct it exactly.
  const size_t hash = std::hash<std::string>{}(key.component) * 31 +
                      static_cast<size_t>(key.resource);
  return *shards_[hash % shards_.size()];
}

bool IngestPipeline::IngestTrace(size_t window, Trace trace) {
  // Advance the frontier even for rejected traces: an all-corrupt window
  // still exists and must be sealed (as a degraded one), not stall the fold.
  const auto advance_frontier = [this](size_t w) {
    size_t frontier = frontier_.load(std::memory_order_relaxed);
    while (w + 1 > frontier &&
           !frontier_.compare_exchange_weak(frontier, w + 1, std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
  };

  if (ValidateTrace(trace) != TraceDefect::kNone) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(rejected_mu_);
      ++rejected_by_window_[window];
    }
    advance_frontier(window);
    return false;
  }

  Shard& shard = ShardForTrace(trace);
  {
    MutexLock lock(shard.mu);
    if (config_.dedupe_traces && trace.trace_id() != 0 &&
        !shard.seen_ids.insert(trace.trace_id()).second) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      advance_frontier(window);
      return false;
    }
    shard.traces.Collect(window, std::move(trace));
  }
  ingested_traces_.fetch_add(1, std::memory_order_relaxed);
  advance_frontier(window);
  return true;
}

void IngestPipeline::IngestMetric(const MetricKey& key, size_t window, double value) {
  Shard& shard = ShardForKey(key);
  {
    MutexLock lock(shard.mu);
    shard.metrics.Record(key, window, value);
    shard.sample_log.emplace_back(key, window);
  }
  size_t frontier = frontier_.load(std::memory_order_relaxed);
  while (window + 1 > frontier &&
         !frontier_.compare_exchange_weak(frontier, window + 1, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
}

size_t IngestPipeline::Fold(size_t watermark) {
  MutexLock fold_lock(fold_mu_);
  const size_t sealed = features_.size();
  for (auto& shard : shards_) {
    TraceCollector traces;
    MetricsStore metrics;
    std::vector<std::pair<MetricKey, size_t>> sample_log;
    {
      MutexLock lock(shard->mu);
      traces = std::move(shard->traces);
      shard->traces = TraceCollector();
      metrics = std::move(shard->metrics);
      shard->metrics = MetricsStore();
      sample_log = std::move(shard->sample_log);
      shard->sample_log.clear();
    }
    // Presence bookkeeping must run before the accumulate: a late sample for
    // a window whose value was imputed replaces the imputation (reset the
    // folded slot to zero so the accumulate reconstructs the actual value).
    for (const auto& [key, w] : sample_log) {
      std::vector<char>& recorded = recorded_[key];
      if (recorded.size() <= w) {
        recorded.resize(w + 1, 0);
      }
      const auto [first_it, inserted] = first_recorded_.try_emplace(key, w);
      if (!inserted && w < first_it->second) {
        first_it->second = w;
      }
      auto imputed_it = imputed_at_.find(key);
      if (imputed_it != imputed_at_.end() && w < imputed_it->second.size() &&
          imputed_it->second[w]) {
        metrics_.Record(key, w, 0.0);
        imputed_it->second[w] = 0;
      }
      recorded[w] = 1;
    }
    // Traces for already-sealed windows keep the ground truth complete but
    // cannot change the frozen feature vectors.
    uint64_t late = 0;
    for (size_t w = 0; w < sealed && w < traces.window_count(); ++w) {
      late += traces.TracesAt(w).size();
    }
    if (late > 0) {
      late_.fetch_add(late, std::memory_order_relaxed);
    }
    collector_.MergeFrom(std::move(traces));
    metrics_.AccumulateFrom(metrics);
  }

  std::map<size_t, uint64_t> rejected_by_window;
  {
    MutexLock lock(rejected_mu_);
    rejected_by_window = rejected_by_window_;
    // Tallies for windows sealed in this fold are consumed; drop them so the
    // map stays bounded (late rejections for sealed windows are uncountable
    // against features anyway).
    rejected_by_window_.erase(rejected_by_window_.begin(),
                              rejected_by_window_.lower_bound(watermark));
  }
  while (features_.size() < watermark) {
    SealWindowLocked(features_.size(), rejected_by_window);
  }
  featured_.store(features_.size(), std::memory_order_release);
  return features_.size();
}

void IngestPipeline::SealWindowLocked(size_t window,
                                      const std::map<size_t, uint64_t>& rejected_by_window) {
  const double accepted = static_cast<double>(collector_.TracesAt(window).size());
  const auto rejected_it = rejected_by_window.find(window);
  const double rejected =
      rejected_it == rejected_by_window.end() ? 0.0 : static_cast<double>(rejected_it->second);

  std::vector<float> features = extractor_.ExtractWindow(collector_, window);
  DataQuality quality;
  if (accepted + rejected > 0.0) {
    quality.trace_coverage = accepted / (accepted + rejected);
  }

  if (traffic_seen_ && accepted <= 0.0) {
    // Collector outage: nothing arrived for a window that follows traffic.
    // Carry the previous window's features forward and mark the window
    // untrustworthy.
    if (!features_.empty()) {
      features = features_.back();
    }
    quality.imputed = true;
    quality.trace_coverage = 0.0;
    imputed_windows_.fetch_add(1, std::memory_order_relaxed);
  }
  traffic_seen_ = traffic_seen_ || accepted > 0.0;

  // Metric-gap repair: every known series either scraped this window or gets
  // the previous window's value carried forward (a missing scrape folds to a
  // literal zero otherwise, which the sanity checker would read as a crash).
  size_t present = 0;
  size_t known = 0;
  for (const auto& [key, recorded] : recorded_) {
    const auto first_it = first_recorded_.find(key);
    if (first_it == first_recorded_.end() || window < first_it->second) {
      continue;  // series not started yet — nothing was expected this window
    }
    ++known;
    const bool has_sample = window < recorded.size() && recorded[window];
    if (has_sample) {
      ++present;
      continue;
    }
    if (window > 0) {
      metrics_.Record(key, window, metrics_.At(key, window - 1));
      std::vector<char>& imputed = imputed_at_[key];
      if (imputed.size() <= window) {
        imputed.resize(window + 1, 0);
      }
      imputed[window] = 1;
      imputed_metrics_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (known > 0) {
    quality.metric_coverage = static_cast<double>(present) / static_cast<double>(known);
  }

  quality.score = std::clamp(quality.trace_coverage * quality.metric_coverage, 0.0, 1.0);
  features_.push_back(std::move(features));
  quality_.push_back(quality);
}

size_t IngestPipeline::IngestLag() const {
  const size_t frontier = WindowFrontier();
  const size_t featured = featured_windows();
  return frontier > featured ? frontier - featured : 0;
}

std::vector<std::vector<float>> IngestPipeline::FeatureSlice(size_t from, size_t to) const {
  MutexLock lock(fold_mu_);
  assert(to <= features_.size() && "FeatureSlice past the featured prefix; Fold first");
  std::vector<std::vector<float>> slice;
  slice.reserve(to > from ? to - from : 0);
  for (size_t w = from; w < to && w < features_.size(); ++w) {
    slice.push_back(features_[w]);
  }
  return slice;
}

std::vector<DataQuality> IngestPipeline::QualitySlice(size_t from, size_t to) const {
  MutexLock lock(fold_mu_);
  std::vector<DataQuality> slice;
  slice.reserve(to > from ? to - from : 0);
  for (size_t w = from; w < to && w < quality_.size(); ++w) {
    slice.push_back(quality_[w]);
  }
  return slice;
}

MetricsStore IngestPipeline::MetricsCopy() const {
  MutexLock lock(fold_mu_);
  return metrics_;
}

TraceCollector IngestPipeline::TracesCopy(size_t from, size_t to) const {
  MutexLock lock(fold_mu_);
  return collector_.CopyRange(from, to);
}

}  // namespace deeprest

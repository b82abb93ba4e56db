// Streaming telemetry ingestion for the online estimation service.
//
// Producer threads push completed traces and metric samples into sharded,
// mutex-guarded buffers (one short lock per event, no contention across
// shards). A single folder — the ContinualLearner tick or an on-demand
// Fold() — drains the shards into the global TraceCollector / MetricsStore
// and extends an incrementally maintained feature series: each window is
// featured exactly once when the watermark passes it, so queries and
// retraining never rescan history from window 0.
//
// Production telemetry is NOT trusted. Admission control rejects traces that
// are structurally broken or carry absurd timestamps (ValidateTrace) and —
// when dedupe_traces is on — duplicates re-delivered by an at-least-once
// transport. Sealing a window additionally runs degraded-mode repair: a
// window that arrived empty, after some earlier window had traces, gets its
// features carried forward from the previous window; metric series that
// missed a scrape are carry-forward imputed. Every sealed window carries a
// DataQuality record describing how much of this happened, which the service
// propagates into estimates and the sanity checker uses to widen tolerances
// (see DESIGN.md "Failure model").
//
// Lock ownership (see DESIGN.md section "src/serve"):
//   * Shard::mu   — producers, one push at a time; Fold swaps buffers out.
//   * rejected_mu_— per-window rejection tallies from producers.
//   * fold_mu_    — the folded state (collector_, metrics_, features_,
//                   quality_); held by Fold while folding and by the
//                   query-side copy accessors, never while training or
//                   serving a request.
//
// Window/watermark semantics: producers tag every event with its absolute
// window index. Windows strictly below the watermark passed to Fold() are
// sealed — their feature vectors and quality records are final. Events that
// arrive for an already-sealed window are still folded into the
// collector/metrics (the ground truth stays complete) but the feature series
// is not recomputed; `late_events()` counts them.
#ifndef SRC_SERVE_INGEST_PIPELINE_H_
#define SRC_SERVE_INGEST_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/feature_extractor.h"
#include "src/core/thread_annotations.h"
#include "src/serve/data_quality.h"
#include "src/telemetry/metrics.h"
#include "src/trace/collector.h"

namespace deeprest {

struct IngestPipelineConfig {
  size_t shards = 4;
  // Drop re-delivered traces (same nonzero trace_id) instead of double
  // counting them. Off by default: the offline replay paths intentionally
  // re-ingest known traces (e.g. late-event tests); a live deployment behind
  // an at-least-once transport should turn it on.
  bool dedupe_traces = false;
};

class IngestPipeline {
 public:
  // The pipeline owns a copy of the (frozen) feature space it features
  // windows with. ContinueLearning never grows the feature space, so the
  // series stays valid across model hot-swaps.
  IngestPipeline(FeatureExtractor extractor, const IngestPipelineConfig& config = {});

  // --- Producer side (any thread, concurrently) ---

  // Returns false when the trace was rejected at the door (malformed
  // structure, absurd timestamps, or a duplicate under dedupe_traces);
  // rejected traces never reach the collector or the feature series but are
  // counted per window so the sealed DataQuality reflects the loss.
  bool IngestTrace(size_t window, Trace trace);
  void IngestMetric(const MetricKey& key, size_t window, double value);

  // One past the highest window index any producer has touched (0 when
  // nothing was ingested yet). With monotone producers the highest window
  // may still be receiving events, so the natural live watermark to pass to
  // Fold() is WindowFrontier() - 1; pass WindowFrontier() itself for the
  // final fold once producers have stopped.
  size_t WindowFrontier() const { return frontier_.load(std::memory_order_acquire); }

  // --- Folder side (one thread at a time) ---

  // Drains every shard into the folded stores and features all not-yet-
  // featured windows in [0, watermark). Returns the featured-prefix length.
  size_t Fold(size_t watermark);

  // Featured-prefix length: windows [0, featured_windows()) have final
  // feature vectors.
  size_t featured_windows() const { return featured_.load(std::memory_order_acquire); }

  // Ingested-but-not-yet-featured distance, the service's freshness metric.
  size_t IngestLag() const;

  uint64_t late_events() const { return late_.load(std::memory_order_relaxed); }
  uint64_t total_traces() const { return ingested_traces_.load(std::memory_order_relaxed); }
  // Admission-control and degraded-mode counters (stats.h surfaces them).
  uint64_t rejected_traces() const { return rejected_.load(std::memory_order_relaxed); }
  uint64_t duplicate_traces() const { return duplicates_.load(std::memory_order_relaxed); }
  uint64_t imputed_windows() const { return imputed_windows_.load(std::memory_order_relaxed); }
  uint64_t imputed_metrics() const { return imputed_metrics_.load(std::memory_order_relaxed); }

  // --- Query side (any thread; copies out under the fold lock) ---

  // Feature vectors for windows [from, to); to must be <= featured_windows().
  std::vector<std::vector<float>> FeatureSlice(size_t from, size_t to) const;

  // Quality records for sealed windows [from, to), index-aligned with
  // FeatureSlice over the same range.
  std::vector<DataQuality> QualitySlice(size_t from, size_t to) const;

  // Stable copies for sanity checks / background training, so callers never
  // hold pipeline locks while running a model.
  MetricsStore MetricsCopy() const;
  TraceCollector TracesCopy(size_t from, size_t to) const;

  const FeatureExtractor& extractor() const { return extractor_; }

 private:
  struct Shard {
    // Lock hierarchy: fold_mu_ -> mu (Fold drains every shard while holding
    // fold_mu_); producers take mu alone.
    Mutex mu;  // deeprest-lint: lock-level(after IngestPipeline::fold_mu_)
    TraceCollector traces DEEPREST_GUARDED_BY(mu);
    MetricsStore metrics DEEPREST_GUARDED_BY(mu);
    // (key, window) of every sample since the last fold, so the folder can
    // tell a recorded zero from a missing scrape.
    std::vector<std::pair<MetricKey, size_t>> sample_log DEEPREST_GUARDED_BY(mu);
    // Trace ids ever accepted by this shard (dedupe_traces routes a given id
    // to a fixed shard, so shard-local dedup is global dedup).
    std::unordered_set<uint64_t> seen_ids DEEPREST_GUARDED_BY(mu);
  };

  Shard& ShardForTrace(const Trace& trace);
  Shard& ShardForKey(const MetricKey& key);
  // Seals one window under fold_mu_: extracts features, applies degraded-mode
  // repair, and appends the DataQuality record.
  void SealWindowLocked(size_t window, const std::map<size_t, uint64_t>& rejected_by_window)
      DEEPREST_REQUIRES(fold_mu_);

  FeatureExtractor extractor_;
  IngestPipelineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> next_trace_shard_{0};
  std::atomic<size_t> frontier_{0};  // one past the highest ingested window
  std::atomic<size_t> featured_{0};
  std::atomic<uint64_t> late_{0};
  std::atomic<uint64_t> ingested_traces_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> imputed_windows_{0};
  std::atomic<uint64_t> imputed_metrics_{0};

  // Per-window rejection tallies (producers write, folder drains). Hierarchy:
  // fold_mu_ -> rejected_mu_; producers take rejected_mu_ alone.
  Mutex rejected_mu_ DEEPREST_ACQUIRED_AFTER(fold_mu_);
  // deeprest-lint: bounded(drained into the sealed window by the folder; keys span only windows not yet sealed)
  std::map<size_t, uint64_t> rejected_by_window_ DEEPREST_GUARDED_BY(rejected_mu_);

  mutable Mutex fold_mu_;
  TraceCollector collector_ DEEPREST_GUARDED_BY(fold_mu_);
  MetricsStore metrics_ DEEPREST_GUARDED_BY(fold_mu_);
  // [0, featured_) prefix.
  std::vector<std::vector<float>> features_ DEEPREST_GUARDED_BY(fold_mu_);
  // Aligned with features_.
  std::vector<DataQuality> quality_ DEEPREST_GUARDED_BY(fold_mu_);
  // Which (key, window) pairs actually scraped, vs. were imputed.
  // deeprest-lint: bounded(one entry per metric series; the series set is the app topology x metric kinds, fixed at deploy)
  std::map<MetricKey, std::vector<char>> recorded_ DEEPREST_GUARDED_BY(fold_mu_);
  // deeprest-lint: bounded(same key space as recorded_: topology x metric kinds)
  std::map<MetricKey, std::vector<char>> imputed_at_ DEEPREST_GUARDED_BY(fold_mu_);
  // Earliest window each series ever scraped: windows before a series starts
  // are not gaps (nothing was expected yet), so they are neither imputed nor
  // held against metric_coverage.
  // deeprest-lint: bounded(same key space as recorded_: topology x metric kinds)
  std::map<MetricKey, size_t> first_recorded_ DEEPREST_GUARDED_BY(fold_mu_);
  // Some earlier sealed window had traces: from then on an empty window is
  // an outage, not a deployment whose traffic has not started yet.
  bool traffic_seen_ DEEPREST_GUARDED_BY(fold_mu_) = false;
};

}  // namespace deeprest

#endif  // SRC_SERVE_INGEST_PIPELINE_H_

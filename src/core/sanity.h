// Application sanity checks (paper section 5.4).
//
// Feeds real traffic/traces through the trained estimator, compares the
// delta-confidence interval against the actual measurements, and turns
// sustained deviations into interpretable alerts (paper Fig. 19c): per-window
// anomaly scores per resource, an ensemble score per component, and event
// records listing how far each resource strayed from expectation.
#ifndef SRC_CORE_SANITY_H_
#define SRC_CORE_SANITY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/telemetry/metrics.h"

namespace deeprest {

struct SanityConfig {
  // A window is anomalous when its ensemble score exceeds this. Calibrated
  // so slow benign drift (e.g. cache working sets growing past the learning
  // horizon) stays below it while attack signatures sit far above.
  double score_threshold = 0.8;
  // Events shorter than this many consecutive windows are dropped.
  size_t min_event_windows = 2;
  // Two anomalous runs separated by fewer than this many clean windows merge.
  size_t merge_gap = 2;
  // Telemetry-quality tolerance widening. A window whose telemetry quality is
  // q (in [0, 1], 1 = complete) has its anomaly score divided by
  // 1 + low_quality_widen * (1 - q): a fully degraded window needs a
  // (1 + low_quality_widen)x stronger deviation to alarm. Estimates computed
  // from imputed features or gap-filled metrics are expected to stray — widening
  // the tolerance on exactly those windows is what keeps degraded-but-honest
  // telemetry from firing false anomaly alarms (DESIGN.md "Failure model").
  double low_quality_widen = 4.0;
};

struct ResourceDeviation {
  MetricKey key;
  // Mean percentage deviation of actual from expected over the event
  // (positive = higher than expected).
  double deviation_pct = 0.0;
};

struct AnomalyEvent {
  size_t start_window = 0;  // inclusive, relative to the checked range
  size_t end_window = 0;    // exclusive
  double peak_score = 0.0;
  std::vector<ResourceDeviation> deviations;  // sorted by |deviation|, desc

  // Interpretable alert text in the spirit of paper Fig. 19c.
  std::string Describe(size_t windows_per_day) const;
};

class SanityChecker {
 public:
  explicit SanityChecker(const SanityConfig& config = {}) : config_(config) {}

  // Per-window anomaly score of one resource: normalized L2 distance of the
  // actual measurement outside the expected interval (0 when inside).
  static std::vector<double> ResourceScores(const ResourceEstimate& estimate,
                                            const std::vector<double>& actual);

  // Ensemble score per window for one component (mean over its resources),
  // the paper's triangulation across resources.
  std::vector<double> ComponentScores(const EstimateMap& estimates,
                                      const MetricsStore& metrics, const std::string& component,
                                      size_t from, size_t to) const;

  // Full detection pass: ensemble per component, threshold, merge runs into
  // events, attach per-resource deviations. Windows are reported relative to
  // `from`.
  std::vector<AnomalyEvent> Detect(const EstimateMap& estimates, const MetricsStore& metrics,
                                   size_t from, size_t to) const;

  // Quality-aware detection: `quality` holds one telemetry-quality score per
  // window of [from, to) (see src/serve/data_quality.h); low-quality windows
  // get their tolerance widened per SanityConfig::low_quality_widen. An empty
  // vector means full quality everywhere (identical to the overload above).
  std::vector<AnomalyEvent> Detect(const EstimateMap& estimates, const MetricsStore& metrics,
                                   size_t from, size_t to,
                                   const std::vector<double>& quality) const;

 private:
  SanityConfig config_;
};

}  // namespace deeprest

#endif  // SRC_CORE_SANITY_H_

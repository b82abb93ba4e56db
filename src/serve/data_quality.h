// Per-window telemetry quality, attached to every sealed feature window.
//
// DeepRest's answers are only as trustworthy as the telemetry behind them.
// When the ingest pipeline seals a window it records how complete that
// window's evidence was: the fraction of traces that survived admission
// control, the fraction of metric series that actually scraped, and whether
// the feature vector had to be imputed (carry-forward). The composite score
// flows with every estimate and sanity result so downstream consumers can
// widen tolerances on degraded windows instead of raising false anomaly
// alarms (DESIGN.md "Failure model").
#ifndef SRC_SERVE_DATA_QUALITY_H_
#define SRC_SERVE_DATA_QUALITY_H_

#include <algorithm>
#include <vector>

namespace deeprest {

struct DataQuality {
  // Composite quality in [0, 1]: trace_coverage * metric_coverage. 1 = the
  // window's telemetry arrived complete; 0 = nothing trustworthy arrived and
  // the features are pure imputation.
  double score = 1.0;
  // Fraction of the window's traces that passed admission control, relative
  // to what was observed arriving (rejections are detectable; silent drops
  // are not).
  double trace_coverage = 1.0;
  // Fraction of known metric series that delivered a sample this window.
  double metric_coverage = 1.0;
  // The window arrived empty and its features were carried forward.
  bool imputed = false;

  bool degraded() const { return score < 1.0 || imputed; }
};

// Composite scores of a quality slice, aligned with the windows it was taken
// over. The sanity checker consumes this to widen per-window tolerances.
inline std::vector<double> QualityScores(const std::vector<DataQuality>& quality) {
  std::vector<double> scores;
  scores.reserve(quality.size());
  for (const DataQuality& q : quality) {
    scores.push_back(std::clamp(q.score, 0.0, 1.0));
  }
  return scores;
}

// Minimum composite score over a slice (1.0 when empty).
inline double MinQuality(const std::vector<DataQuality>& quality) {
  double min = 1.0;
  for (const DataQuality& q : quality) {
    min = std::min(min, q.score);
  }
  return min;
}

}  // namespace deeprest

#endif  // SRC_SERVE_DATA_QUALITY_H_

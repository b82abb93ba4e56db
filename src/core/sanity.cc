#include "src/core/sanity.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace deeprest {

std::vector<double> SanityChecker::ResourceScores(const ResourceEstimate& estimate,
                                                  const std::vector<double>& actual) {
  const size_t n = std::min(actual.size(), estimate.expected.size());
  // Normalize by the typical interval width so scores are comparable across
  // resources with wildly different units.
  double width_sum = 0.0;
  double level_sum = 0.0;
  for (size_t t = 0; t < n; ++t) {
    width_sum += estimate.upper[t] - estimate.lower[t];
    level_sum += estimate.expected[t];
  }
  const double denom =
      std::max({width_sum / std::max<size_t>(1, n), 0.05 * level_sum / std::max<size_t>(1, n),
                1e-9});

  std::vector<double> scores(n, 0.0);
  for (size_t t = 0; t < n; ++t) {
    double distance = 0.0;
    if (actual[t] > estimate.upper[t]) {
      distance = actual[t] - estimate.upper[t];
    } else if (actual[t] < estimate.lower[t]) {
      distance = estimate.lower[t] - actual[t];
    }
    scores[t] = std::min(distance / denom, 10.0);
  }
  return scores;
}

std::vector<double> SanityChecker::ComponentScores(const EstimateMap& estimates,
                                                   const MetricsStore& metrics,
                                                   const std::string& component, size_t from,
                                                   size_t to) const {
  std::vector<double> scores(to - from, 0.0);
  size_t resource_count = 0;
  for (const auto& [key, estimate] : estimates) {
    if (key.component != component) {
      continue;
    }
    const std::vector<double> actual = metrics.Series(key, from, to);
    const std::vector<double> resource_scores = ResourceScores(estimate, actual);
    for (size_t t = 0; t < resource_scores.size() && t < scores.size(); ++t) {
      scores[t] += resource_scores[t];
    }
    ++resource_count;
  }
  if (resource_count > 0) {
    for (double& s : scores) {
      s /= static_cast<double>(resource_count);
    }
  }
  return scores;
}

std::vector<AnomalyEvent> SanityChecker::Detect(const EstimateMap& estimates,
                                                const MetricsStore& metrics, size_t from,
                                                size_t to) const {
  return Detect(estimates, metrics, from, to, {});
}

std::vector<AnomalyEvent> SanityChecker::Detect(const EstimateMap& estimates,
                                                const MetricsStore& metrics, size_t from,
                                                size_t to,
                                                const std::vector<double>& quality) const {
  // Collect the component set from the estimates.
  std::set<std::string> components;
  for (const auto& [key, unused] : estimates) {
    components.insert(key.component);
  }

  // Overall per-window score = max over components (an attack on one
  // component should not be diluted by the healthy rest of the fleet).
  const size_t n = to - from;
  std::vector<double> overall(n, 0.0);
  std::map<std::string, std::vector<double>> per_component;
  for (const std::string& component : components) {
    auto scores = ComponentScores(estimates, metrics, component, from, to);
    for (size_t t = 0; t < n; ++t) {
      overall[t] = std::max(overall[t], scores[t]);
    }
    per_component.emplace(component, std::move(scores));
  }

  // Telemetry-quality tolerance widening: a window backed by degraded
  // telemetry (imputed features, rejected traces, metric gaps) must
  // deviate proportionally harder before it counts as anomalous.
  if (!quality.empty() && config_.low_quality_widen > 0.0) {
    for (size_t w = 0; w < n && w < quality.size(); ++w) {
      const double q = std::clamp(quality[w], 0.0, 1.0);
      overall[w] /= 1.0 + config_.low_quality_widen * (1.0 - q);
    }
  }

  // Threshold into runs, merging runs separated by small gaps.
  std::vector<std::pair<size_t, size_t>> runs;
  size_t t = 0;
  while (t < n) {
    if (overall[t] <= config_.score_threshold) {
      ++t;
      continue;
    }
    size_t end = t + 1;
    while (end < n && overall[end] > config_.score_threshold) {
      ++end;
    }
    if (!runs.empty() && t - runs.back().second <= config_.merge_gap) {
      runs.back().second = end;
    } else {
      runs.emplace_back(t, end);
    }
    t = end;
  }

  std::vector<AnomalyEvent> events;
  for (const auto& [start, end] : runs) {
    if (end - start < config_.min_event_windows) {
      continue;
    }
    AnomalyEvent event;
    event.start_window = start;
    event.end_window = end;
    for (size_t w = start; w < end; ++w) {
      event.peak_score = std::max(event.peak_score, overall[w]);
    }
    // Per-resource mean deviation over the event, for interpretability.
    for (const auto& [key, estimate] : estimates) {
      const std::vector<double> actual = metrics.Series(key, from + start, from + end);
      double actual_sum = 0.0;
      double expected_sum = 0.0;
      for (size_t w = 0; w < actual.size(); ++w) {
        actual_sum += actual[w];
        expected_sum += estimate.expected[start + w];
      }
      if (expected_sum <= 1e-9) {
        continue;
      }
      const double deviation = 100.0 * (actual_sum - expected_sum) / expected_sum;
      if (std::fabs(deviation) >= 15.0) {
        event.deviations.push_back({key, deviation});
      }
    }
    std::sort(event.deviations.begin(), event.deviations.end(),
              [](const ResourceDeviation& a, const ResourceDeviation& b) {
                return std::fabs(a.deviation_pct) > std::fabs(b.deviation_pct);
              });
    events.push_back(std::move(event));
  }
  return events;
}

std::string AnomalyEvent::Describe(size_t windows_per_day) const {
  std::ostringstream os;
  // 1-based day numbering for the human-facing report.
  const size_t day_start = windows_per_day > 0 ? start_window / windows_per_day + 1 : 1;
  const size_t day_end = windows_per_day > 0 ? (end_window - 1) / windows_per_day + 1 : 1;
  os << "Anomalous Event\n";
  os << "  Windows: " << start_window << " - " << end_window << " (day " << day_start;
  if (day_end != day_start) {
    os << " - day " << day_end;
  }
  os << ")\n";
  os << "  Peak anomaly score: " << peak_score << "\n";
  std::string current_component;
  constexpr size_t kMaxReportedDeviations = 8;
  size_t reported = 0;
  for (const auto& deviation : deviations) {
    if (reported++ >= kMaxReportedDeviations) {
      os << "  (+" << deviations.size() - kMaxReportedDeviations
         << " further deviating resources)\n";
      break;
    }
    if (deviation.key.component != current_component) {
      current_component = deviation.key.component;
      os << "  Component: " << current_component << "\n";
    }
    const double pct = deviation.deviation_pct;
    os << "    " << ResourceKindName(deviation.key.resource) << ": " << std::fabs(pct)
       << (pct >= 0.0 ? "% higher" : "% lower") << " than expected\n";
  }
  return os.str();
}

}  // namespace deeprest

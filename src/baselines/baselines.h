// Comparison baselines (paper section 5.1).
//
//  * ResourceAwareDl — "resrc-aware DL": one recurrent network per resource
//    trained purely on historical utilization (represents [53, 64, 66, 69]).
//    It never sees the query traffic, which is exactly its documented flaw.
//  * SimpleScaling — scales every resource of every component by the same
//    total-traffic ratio w.r.t. the learning phase.
//  * ComponentAwareScaling — uses distributed traces to scale each component
//    by its own invocation ratio, but applies one factor to all resources of
//    the component.
#ifndef SRC_BASELINES_BASELINES_H_
#define SRC_BASELINES_BASELINES_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/nn/layers.h"
#include "src/telemetry/metrics.h"
#include "src/trace/collector.h"
#include "src/workload/traffic.h"

namespace deeprest {

struct ResourceAwareDlConfig {
  size_t hidden_dim = 10;
  size_t epochs = 25;
  float learning_rate = 0.02f;
  float delta = 0.90f;
  float grad_clip = 5.0f;
  uint64_t seed = 1;
};

// Forecasts next-day utilization from the previous day's utilization of the
// same resource plus a time-of-day encoding.
//
// Training schedule (it fixes the baseline columns of Figs. 10-18). Each
// epoch visits the experts in order; per expert it zeroes every gradient,
// makes one pass over windows [wpd, total) with x_t = [previous-day value,
// sin, cos], detaches the state after each window t with
// t % (wpd / 2 + 1) == 0, takes the mean pinball loss over the whole pass,
// and runs ClipGradNorm and one AdamOptimizer::Step over the whole store. So
// that step also moves every other expert's parameters by their Adam
// moments, and the step count grows by E per epoch.
//
// The passes run on the code DeepRest trains on (src/nn/batched.h): the
// forward steps the expert's GRU on LaneCoreStep, in a one-lane core (a lone
// expert gains nothing from padded lanes, whose sigmoid and tanh would cost
// 16 times the work), with every input projection one GEMM and the heads one
// more; the backward is a hand-written BPTT on the chunk trainer's
// LaneCoreStepBackward in the same one-lane layout. Gradients and
// parameters are bit-identical to the elementary-op graph of the same
// schedule, which the tests keep as the oracle. Forecast steps every expert
// at once in the lane layout.
class ResourceAwareDl {
 public:
  explicit ResourceAwareDl(const ResourceAwareDlConfig& config = {});
  // The layers hold handles into this model's own parameters.
  ResourceAwareDl(const ResourceAwareDl&) = delete;
  ResourceAwareDl& operator=(const ResourceAwareDl&) = delete;

  void Learn(const MetricsStore& metrics, size_t from, size_t to, size_t windows_per_day,
             const std::vector<MetricKey>& resources);

  // Forecast `horizon` windows following the learning range. Multi-day
  // horizons roll forward on the model's own predictions.
  EstimateMap Forecast(size_t horizon) const;

  bool trained() const { return !experts_.empty(); }

 private:
  // The test-side oracle (tests/testing/reference_baseline.h) reruns Learn
  // and Forecast on the tape over these parameters.
  friend class ReferenceBaseline;

  struct Expert {
    MetricKey key;
    GruCell gru;
    Linear head;
    double y_scale = 1.0;
    std::vector<float> last_day;  // scaled utilization of the final learn day
  };

  ResourceAwareDlConfig config_;
  ParameterStore store_;
  std::vector<Expert> experts_;
  size_t windows_per_day_ = 0;
};

// Scales all resources by the total-request ratio per window-of-day.
class SimpleScaling {
 public:
  void Learn(const MetricsStore& metrics, const TrafficSeries& learn_traffic, size_t from,
             size_t to, size_t windows_per_day, const std::vector<MetricKey>& resources);

  // Requires only the query API traffic (no traces).
  EstimateMap Estimate(const TrafficSeries& query_traffic) const;

 private:
  size_t windows_per_day_ = 0;
  std::vector<double> traffic_profile_;  // mean total requests per window-of-day
  std::map<MetricKey, std::vector<double>> utilization_profile_;
};

// Scales each component by its own invocation ratio derived from traces.
class ComponentAwareScaling {
 public:
  void Learn(const MetricsStore& metrics, const TraceCollector& learn_traces, size_t from,
             size_t to, size_t windows_per_day, const std::vector<MetricKey>& resources);

  // Query traces (synthetic or real) provide per-component invocation counts.
  EstimateMap Estimate(const TraceCollector& query_traces, size_t from, size_t to) const;

 private:
  static std::map<std::string, double> CountInvocations(const TraceCollector& traces,
                                                        size_t window);

  size_t windows_per_day_ = 0;
  // invocation_profile_[component][window_of_day] = mean spans per window.
  std::map<std::string, std::vector<double>> invocation_profile_;
  std::map<MetricKey, std::vector<double>> utilization_profile_;
};

}  // namespace deeprest

#endif  // SRC_BASELINES_BASELINES_H_

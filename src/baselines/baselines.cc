#include "src/baselines/baselines.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/nn/batched.h"
#include "src/nn/optimizer.h"
#include "src/nn/simd/dispatch.h"

namespace deeprest {

// ---- ResourceAwareDl ----

namespace {

// The time-of-day half of an expert's input: sin and cos of the window's
// phase in the day.
void TimeOfDay(size_t window_of_day, size_t windows_per_day, float& sine, float& cosine) {
  const float phase = 2.0f * static_cast<float>(M_PI) * static_cast<float>(window_of_day) /
                      static_cast<float>(windows_per_day);
  sine = std::sin(phase);
  cosine = std::cos(phase);
}

}  // namespace

ResourceAwareDl::ResourceAwareDl(const ResourceAwareDlConfig& config) : config_(config) {}

void ResourceAwareDl::Learn(const MetricsStore& metrics, size_t from, size_t to,
                            size_t windows_per_day, const std::vector<MetricKey>& resources) {
  windows_per_day_ = windows_per_day;
  const size_t total_windows = to - from;
  assert(total_windows / windows_per_day >= 2 &&
         "resource-aware DL needs at least two days of history");

  Rng rng(config_.seed);
  experts_.clear();
  store_ = ParameterStore();
  experts_.reserve(resources.size());
  std::vector<std::vector<float>> scaled_series(resources.size());
  for (size_t i = 0; i < resources.size(); ++i) {
    Expert expert;
    expert.key = resources[i];
    const std::string name = "rdl" + std::to_string(i);
    expert.gru = GruCell(store_, name + ".gru", 3, config_.hidden_dim, rng);
    expert.head = Linear(store_, name + ".head", config_.hidden_dim, 3, rng);
    const auto series = metrics.Series(resources[i], from, to);
    double max_value = 1e-9;
    for (double v : series) {
      max_value = std::max(max_value, v);
    }
    expert.y_scale = max_value;
    auto& scaled = scaled_series[i];
    scaled.reserve(series.size());
    for (double v : series) {
      scaled.push_back(static_cast<float>(v / max_value));
    }
    expert.last_day.assign(scaled.end() - static_cast<ptrdiff_t>(windows_per_day),
                           scaled.end());
    experts_.push_back(std::move(expert));
  }

  const float lo_q = (1.0f - config_.delta) / 2.0f;
  const float up_q = config_.delta + (1.0f - config_.delta) / 2.0f;
  const float deltas[3] = {0.5f, lo_q, up_q};
  AdamOptimizer optimizer(store_, config_.learning_rate);

  // One pass predicts day d window w from day d-1 window w, for every window
  // after the first day. Row r of every per-window matrix is window
  // total_windows - 1 - r, so the backward's sums run newest first.
  const size_t hd = config_.hidden_dim;
  const size_t steps = total_windows - windows_per_day;
  const size_t detach_every = windows_per_day / 2 + 1;
  const float inv = 1.0f / static_cast<float>(steps);
  Matrix x(steps, 3);
  for (size_t r = 0; r < steps; ++r) {
    TimeOfDay((total_windows - 1 - r) % windows_per_day, windows_per_day, x.At(r, 1),
              x.At(r, 2));
  }
  LaneCores cores;
  LaneTape tape;
  LaneBackward back;
  Matrix w_in, gates, states, head_t, y, d_y(steps, 3), d_y_row(3, 1), stacked;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t i = 0; i < experts_.size(); ++i) {
      Expert& expert = experts_[i];
      const GruCell& gru = expert.gru;
      const auto& scaled = scaled_series[i];
      optimizer.ZeroGrad();

      // Forward: every input projection as one GEMM, then one lane step per
      // window, oldest first, then the heads as one more GEMM. In a one-lane
      // core the lane layout is the row layout, so a row of `gates` is a
      // step's gates and a row of `states` its state.
      for (size_t r = 0; r < steps; ++r) {
        x.At(r, 0) = scaled[total_windows - 1 - r - windows_per_day];
      }
      StackTransposedInto({&gru.wz().value, &gru.wk().value, &gru.wh().value}, w_in);
      MatMulInto(x, w_in, gates);
      ResetLaneCores(1, /*lanes=*/1, hd, /*recurrent=*/true, cores);
      PackGruLane(gru, 0, cores, stacked);
      tape.Resize(steps, cores);
      states.SetShape(steps, hd);
      std::fill(states.data() + (steps - 1) * hd, states.data() + steps * hd, 0.0f);
      for (size_t r = steps; r-- > 0;) {
        float* h = states.data() + r * hd;
        if (r + 1 < steps) {
          std::copy(h + hd, h + 2 * hd, h);
        }
        LaneCoreStep(cores, gates.data() + r * cores.gates(), h, tape, r);
      }
      const Parameter& head_w = expert.head.weight();
      const Matrix& head_b = expert.head.bias().value;
      StackTransposedInto({&head_w.value}, head_t);
      MatMulInto(states, head_t, y);
      // The mean pinball loss's gradient: (1 / T) (u >= 0 ? -q : 1 - q), with
      // u = target - (head + b).
      for (size_t r = 0; r < steps; ++r) {
        const float target = scaled[total_windows - 1 - r];
        for (size_t j = 0; j < 3; ++j) {
          const float u = target - (y.At(r, j) + head_b[j]);
          d_y.At(r, j) = inv * (u >= 0.0f ? -deltas[j] : 1.0f - deltas[j]);
        }
      }

      // Backward, newest window first, on the trainers' shared lane
      // backward. back.dh enters row r holding the terms of the next
      // window's step (none for the newest window, or when this window's
      // state was detached), then takes the head's. With one lane, the lane
      // tape's rows are the expert's T x H matrices.
      back.Resize(steps, cores);
      PackGruBackwardLane(gru, 0, back);
      for (size_t r = 0; r < steps; ++r) {
        std::copy(d_y.data() + r * 3, d_y.data() + r * 3 + 3, d_y_row.data());
        AccumulateATransposeB(head_w.value, d_y_row, back.dh);
        const size_t t = total_windows - 1 - r;
        const bool chain = t > windows_per_day && (t - 1) % detach_every != 0;
        LaneCoreStepBackward(cores, tape, r, chain, back);
      }
      AccumulateGruGradients({tape.h, tape.kh, back.d_z, back.d_k, back.d_pre}, x, gru);
      AccumulateATransposeB(d_y, states, expert.head.weight().grad);
      AccumulateRows(d_y, expert.head.bias().grad);
      ClipGradNorm(store_, config_.grad_clip);
      optimizer.Step();
    }
  }
}

EstimateMap ResourceAwareDl::Forecast(size_t horizon) const {
  assert(trained());
  // Every expert steps at once, one per lane: per window, one LaneAccumulate
  // for the input projection, one LaneCoreStep and one LaneAccumulate for
  // the heads, plus their bias.
  const size_t e = experts_.size();
  const size_t hd = config_.hidden_dim;
  LaneCores cores;
  ResetLaneCores(e, LaneCount(e), hd, /*recurrent=*/true, cores);
  const size_t lanes = cores.lanes;
  Matrix w_in(3 * cores.gates(), lanes);  // [Wz;Wk;Wh]^T per lane
  Matrix head_w(hd * 3, lanes);           // head^T per lane
  Matrix head_b(3, lanes);
  Matrix stacked;
  for (size_t i = 0; i < e; ++i) {
    const Expert& expert = experts_[i];
    const GruCell& gru = expert.gru;
    PackGruLane(gru, i, cores, stacked);
    StackTransposedInto({&gru.wz().value, &gru.wk().value, &gru.wh().value}, stacked);
    PackLane(stacked, i, w_in);
    StackTransposedInto({&expert.head.weight().value}, stacked);
    PackLane(stacked, i, head_w);
    PackLane(expert.head.bias().value, i, head_b);
  }

  std::vector<std::vector<float>> prev_day(e);
  std::vector<std::vector<float>> next_day(e);
  std::vector<ResourceEstimate> estimates(e);
  for (size_t i = 0; i < e; ++i) {
    prev_day[i] = experts_[i].last_day;
    next_day[i].reserve(windows_per_day_);
  }
  Matrix x(3, lanes);  // the padded lanes stay 0
  Matrix gates(cores.gates(), lanes);
  Matrix state(hd, lanes);
  Matrix y(3, lanes);
  LaneTape step;  // one row: the step's scratch
  step.Resize(1, cores);
  for (size_t t = 0; t < horizon; ++t) {
    const size_t window_of_day = t % windows_per_day_;
    float sine = 0.0f;
    float cosine = 0.0f;
    TimeOfDay(window_of_day, windows_per_day_, sine, cosine);
    for (size_t i = 0; i < e; ++i) {
      x[i] = prev_day[i][window_of_day];
      x[lanes + i] = sine;
      x[2 * lanes + i] = cosine;
    }
    gates.Zero();
    simd::LaneAccumulate(x.data(), w_in.data(), gates.data(), 3, cores.gates(), lanes);
    LaneCoreStep(cores, gates.data(), state.data(), step, 0);
    y.Zero();
    simd::LaneAccumulate(state.data(), head_w.data(), y.data(), hd, 3, lanes);
    simd::Add(y.data(), head_b.data(), y.data(), y.size());
    for (size_t i = 0; i < e; ++i) {
      const double expected = std::max(0.0, static_cast<double>(y[i]));
      double lower = std::max(0.0, static_cast<double>(y[lanes + i]));
      double upper = std::max(0.0, static_cast<double>(y[2 * lanes + i]));
      lower = std::min(lower, expected);
      upper = std::max(upper, expected);
      const double scale = experts_[i].y_scale;
      estimates[i].expected.push_back(expected * scale);
      estimates[i].lower.push_back(lower * scale);
      estimates[i].upper.push_back(upper * scale);
      next_day[i].push_back(static_cast<float>(expected));
    }
    if (window_of_day + 1 == windows_per_day_) {
      // Roll into the following day on our own predictions.
      prev_day.swap(next_day);
      for (auto& day : next_day) {
        day.clear();
      }
    }
  }
  EstimateMap out;
  for (size_t i = 0; i < e; ++i) {
    out.emplace(experts_[i].key, std::move(estimates[i]));
  }
  return out;
}

// ---- SimpleScaling ----

void SimpleScaling::Learn(const MetricsStore& metrics, const TrafficSeries& learn_traffic,
                          size_t from, size_t to, size_t windows_per_day,
                          const std::vector<MetricKey>& resources) {
  windows_per_day_ = windows_per_day;
  const size_t total_windows = to - from;
  const size_t days = std::max<size_t>(1, total_windows / windows_per_day);

  traffic_profile_.assign(windows_per_day, 0.0);
  for (size_t t = 0; t < total_windows && t < learn_traffic.windows(); ++t) {
    traffic_profile_[t % windows_per_day] += learn_traffic.TotalAt(t);
  }
  for (double& v : traffic_profile_) {
    v /= static_cast<double>(days);
  }

  for (const auto& key : resources) {
    auto& profile = utilization_profile_[key];
    profile.assign(windows_per_day, 0.0);
    const auto series = metrics.Series(key, from, to);
    for (size_t t = 0; t < series.size(); ++t) {
      profile[t % windows_per_day] += series[t];
    }
    for (double& v : profile) {
      v /= static_cast<double>(days);
    }
  }
}

EstimateMap SimpleScaling::Estimate(const TrafficSeries& query_traffic) const {
  EstimateMap out;
  for (const auto& [key, profile] : utilization_profile_) {
    ResourceEstimate estimate;
    for (size_t t = 0; t < query_traffic.windows(); ++t) {
      const size_t window_of_day = t % windows_per_day_;
      const double factor =
          query_traffic.TotalAt(t) / std::max(traffic_profile_[window_of_day], 1e-9);
      const double value = profile[window_of_day] * factor;
      estimate.expected.push_back(value);
      estimate.lower.push_back(value);
      estimate.upper.push_back(value);
    }
    out.emplace(key, std::move(estimate));
  }
  return out;
}

// ---- ComponentAwareScaling ----

std::map<std::string, double> ComponentAwareScaling::CountInvocations(
    const TraceCollector& traces, size_t window) {
  std::map<std::string, double> counts;
  for (const Trace& trace : traces.TracesAt(window)) {
    for (const Span& span : trace.spans()) {
      counts[span.component] += 1.0;
    }
  }
  return counts;
}

void ComponentAwareScaling::Learn(const MetricsStore& metrics,
                                  const TraceCollector& learn_traces, size_t from, size_t to,
                                  size_t windows_per_day,
                                  const std::vector<MetricKey>& resources) {
  windows_per_day_ = windows_per_day;
  const size_t total_windows = to - from;
  const size_t days = std::max<size_t>(1, total_windows / windows_per_day);

  invocation_profile_.clear();
  for (size_t t = 0; t < total_windows; ++t) {
    for (const auto& [component, count] : CountInvocations(learn_traces, from + t)) {
      auto& profile = invocation_profile_[component];
      if (profile.empty()) {
        profile.assign(windows_per_day, 0.0);
      }
      profile[t % windows_per_day] += count;
    }
  }
  for (auto& [component, profile] : invocation_profile_) {
    for (double& v : profile) {
      v /= static_cast<double>(days);
    }
  }

  for (const auto& key : resources) {
    auto& profile = utilization_profile_[key];
    profile.assign(windows_per_day, 0.0);
    const auto series = metrics.Series(key, from, to);
    for (size_t t = 0; t < series.size(); ++t) {
      profile[t % windows_per_day] += series[t];
    }
    for (double& v : profile) {
      v /= static_cast<double>(days);
    }
  }
}

EstimateMap ComponentAwareScaling::Estimate(const TraceCollector& query_traces, size_t from,
                                            size_t to) const {
  EstimateMap out;
  const size_t horizon = to - from;
  // Precompute per-window component factors.
  std::vector<std::map<std::string, double>> factors(horizon);
  for (size_t t = 0; t < horizon; ++t) {
    const auto counts = CountInvocations(query_traces, from + t);
    for (const auto& [component, count] : counts) {
      auto it = invocation_profile_.find(component);
      if (it == invocation_profile_.end()) {
        continue;
      }
      const double baseline = it->second[t % windows_per_day_];
      factors[t][component] = count / std::max(baseline, 1e-9);
    }
  }

  for (const auto& [key, profile] : utilization_profile_) {
    ResourceEstimate estimate;
    for (size_t t = 0; t < horizon; ++t) {
      const size_t window_of_day = t % windows_per_day_;
      double factor = 1.0;  // components never invoked keep their profile
      auto it = factors[t].find(key.component);
      if (it != factors[t].end()) {
        factor = it->second;
      } else if (invocation_profile_.count(key.component) > 0) {
        factor = 0.0;  // normally-invoked component saw no query traffic
      }
      const double value = profile[window_of_day] * factor;
      estimate.expected.push_back(value);
      estimate.lower.push_back(value);
      estimate.upper.push_back(value);
    }
    out.emplace(key, std::move(estimate));
  }
  return out;
}

}  // namespace deeprest

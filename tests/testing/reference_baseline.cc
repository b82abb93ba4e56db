#include "tests/testing/reference_baseline.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/nn/optimizer.h"
#include "tests/testing/ops.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {

namespace {

Tensor InputAt(float prev_day_value, size_t window_of_day, size_t windows_per_day) {
  const float phase = 2.0f * static_cast<float>(M_PI) * static_cast<float>(window_of_day) /
                      static_cast<float>(windows_per_day);
  return Tensor::Constant(
      Matrix::Column({prev_day_value, std::sin(phase), std::cos(phase)}));
}

}  // namespace

void ReferenceBaseline::Learn(ResourceAwareDl& model, const MetricsStore& metrics,
                              size_t from, size_t to, size_t epochs) {
  const ResourceAwareDlConfig& config = model.config_;
  const size_t windows_per_day = model.windows_per_day_;
  const size_t total_windows = to - from;
  std::vector<std::vector<float>> scaled_series;
  for (const auto& expert : model.experts_) {
    std::vector<float>& scaled = scaled_series.emplace_back();
    for (double v : metrics.Series(expert.key, from, to)) {
      scaled.push_back(static_cast<float>(v / expert.y_scale));
    }
  }
  const float lo_q = (1.0f - config.delta) / 2.0f;
  const float up_q = config.delta + (1.0f - config.delta) / 2.0f;
  const std::vector<float> deltas = {0.5f, lo_q, up_q};
  AdamOptimizer optimizer(model.store_, config.learning_rate);
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = 0; i < model.experts_.size(); ++i) {
      const ResourceAwareDl::Expert& expert = model.experts_[i];
      const auto& scaled = scaled_series[i];
      const TapeLeaves leaves(model.store_);
      Tensor h = Tensor::Constant(Matrix(config.hidden_dim, 1));
      std::vector<Tensor> losses;
      for (size_t t = windows_per_day; t < total_windows; ++t) {
        const Tensor x =
            InputAt(scaled[t - windows_per_day], t % windows_per_day, windows_per_day);
        h = GruStepReference(leaves, expert.gru, x, h);
        losses.push_back(PinballLoss(LinearReference(leaves, expert.head, h), scaled[t], deltas));
        if (t % (windows_per_day / 2 + 1) == 0) {
          h = h.Detach();
        }
      }
      Tensor loss = Affine(AddN(losses), 1.0f / static_cast<float>(losses.size()), 0.0f);
      loss.Backward();
      leaves.CopyGradients(model.store_);
      ClipGradNorm(model.store_, config.grad_clip);
      optimizer.Step();
    }
  }
}

EstimateMap ReferenceBaseline::Forecast(const ResourceAwareDl& model, size_t horizon) {
  NoGradGuard no_grad;
  const TapeLeaves leaves(model.store_);
  const size_t windows_per_day = model.windows_per_day_;
  EstimateMap out;
  for (const auto& expert : model.experts_) {
    std::vector<float> prev_day = expert.last_day;
    std::vector<float> next_day;
    Tensor h = Tensor::Constant(Matrix(model.config_.hidden_dim, 1));
    ResourceEstimate estimate;
    for (size_t t = 0; t < horizon; ++t) {
      const size_t window_of_day = t % windows_per_day;
      const Tensor x = InputAt(prev_day[window_of_day], window_of_day, windows_per_day);
      h = GruStepReference(leaves, expert.gru, x, h);
      const Tensor output = LinearReference(leaves, expert.head, h);
      const Matrix& y = output.value();
      const double expected = std::max(0.0, static_cast<double>(y.At(0, 0)));
      double lower = std::max(0.0, static_cast<double>(y.At(1, 0)));
      double upper = std::max(0.0, static_cast<double>(y.At(2, 0)));
      lower = std::min(lower, expected);
      upper = std::max(upper, expected);
      estimate.expected.push_back(expected * expert.y_scale);
      estimate.lower.push_back(lower * expert.y_scale);
      estimate.upper.push_back(upper * expert.y_scale);
      next_day.push_back(static_cast<float>(expected));
      if (window_of_day + 1 == windows_per_day) {
        prev_day = next_day;
        next_day.clear();
      }
    }
    out.emplace(expert.key, std::move(estimate));
  }
  return out;
}

const ParameterStore& ReferenceBaseline::Parameters(const ResourceAwareDl& model) {
  return model.store_;
}

}  // namespace deeprest

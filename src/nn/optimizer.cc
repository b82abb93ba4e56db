#include "src/nn/optimizer.h"

#include <cassert>
#include <cmath>

#include "src/nn/simd/dispatch.h"

namespace deeprest {

float ClipGradNorm(ParameterStore& store, float max_norm) {
  double total = 0.0;
  for (const auto& e : store.entries()) {
    const Matrix& g = e.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& e : store.entries()) {
      e.grad.Scale(scale);
    }
  }
  return norm;
}

AdamOptimizer::AdamOptimizer(ParameterStore& store, float learning_rate, float beta1,
                             float beta2, float epsilon)
    : store_(&store),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  m_.reserve(store.entries().size());
  v_.reserve(store.entries().size());
  for (const auto& e : store.entries()) {
    m_.emplace_back(e.value.rows(), e.value.cols());
    v_.emplace_back(e.value.rows(), e.value.cols());
  }
}

void AdamOptimizer::Step() {
  ++step_count_;
  const simd::AdamStepParams params = {
      .beta1 = beta1_,
      .beta2 = beta2_,
      .learning_rate = learning_rate_,
      .epsilon = epsilon_,
      .bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_)),
      .bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_)),
  };
  auto& entries = store_->entries();
  // The moments are sized when the optimizer is built, so every parameter
  // must exist by then: every caller builds its model first.
  assert(entries.size() == m_.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    Parameter& p = entries[i];
    simd::AdamStep(p.grad.data(), m_[i].data(), v_[i].data(), p.value.data(), p.value.size(),
                   params);
  }
}

}  // namespace deeprest

#include "tests/testing/reference_graph.h"

#include <algorithm>
#include <utility>

#include "src/core/estimator_train.h"
#include "src/nn/optimizer.h"
#include "tests/testing/ops.h"

namespace deeprest {

TapeLeaves::TapeLeaves(const ParameterStore& store) {
  for (const Parameter& p : store.entries()) {
    Tensor leaf = Tensor::Parameter(p.value);
    leaf.node()->EnsureGrad();
    leaves_.emplace(&p, std::move(leaf));
  }
}

const Tensor& TapeLeaves::operator[](const Parameter& parameter) const {
  return leaves_.at(&parameter);
}

void TapeLeaves::CopyGradients(ParameterStore& store) const {
  for (Parameter& p : store.entries()) {
    p.grad = (*this)[p].grad();
  }
}

Tensor GruStepReference(const TapeLeaves& leaves, const GruCell& gru, const Tensor& x,
                        const Tensor& h_prev) {
  const auto leaf = [&](const Parameter& p) -> const Tensor& { return leaves[p]; };
  Tensor z = Sigmoid(
      Add(Add(MatMul(leaf(gru.wz()), x), MatMul(leaf(gru.uz()), h_prev)), leaf(gru.bz())));
  Tensor k = Sigmoid(
      Add(Add(MatMul(leaf(gru.wk()), x), MatMul(leaf(gru.uk()), h_prev)), leaf(gru.bk())));
  Tensor h_candidate = Tanh(Add(
      Add(MatMul(leaf(gru.wh()), x), MatMul(leaf(gru.uh()), Hadamard(k, h_prev))),
      leaf(gru.bh())));
  // h = z . h_prev + (1 - z) . h_candidate
  Tensor one_minus_z = Affine(z, -1.0f, 1.0f);
  return Add(Hadamard(z, h_prev), Hadamard(one_minus_z, h_candidate));
}

Tensor LinearReference(const TapeLeaves& leaves, const Linear& layer, const Tensor& x) {
  return Add(MatMul(leaves[layer.weight()], x), leaves[layer.bias()]);
}

Tensor AttentionReference(const Tensor& alpha, const Tensor& diag_mask,
                          const std::vector<Tensor>& hidden) {
  return MatMul(Hadamard(alpha, diag_mask), StackColumns(hidden));
}

Tensor ExpertHeadReference(const TapeLeaves& leaves, const Tensor& attended, size_t row,
                           const Tensor& h, const Linear& head, const Linear* skip,
                           const Tensor& xm) {
  const Tensor a = attended.defined() ? RowAsColumn(attended, row)
                                      : Tensor::Constant(Matrix(head.in_dim() - h.rows(), 1));
  const Tensor head_out = LinearReference(leaves, head, ConcatRows(a, h));
  return skip != nullptr ? Add(head_out, LinearReference(leaves, *skip, xm)) : head_out;
}

std::vector<std::pair<std::string, EstimatorConfig>> AblationGrid(const EstimatorConfig& base) {
  std::vector<std::pair<std::string, EstimatorConfig>> grid(7, {"full", base});
  grid[1].first = "no-attention";
  grid[1].second.use_attention = false;
  grid[2].first = "no-mask";
  grid[2].second.use_api_mask = false;
  grid[3].first = "no-warm-start";
  grid[3].second.warm_start = false;
  grid[4].first = "feed-forward";
  grid[4].second.use_recurrence = false;
  grid[5].first = "no-bypass";
  grid[5].second.use_linear_bypass = false;
  grid[6].first = "feed-forward-no-bypass";
  grid[6].second.use_recurrence = false;
  grid[6].second.use_linear_bypass = false;
  return grid;
}

std::vector<Tensor> ReferenceGraph::StepAllReference(const DeepRestEstimator& model,
                                                     const TapeLeaves& leaves, const Tensor& x,
                                                     std::vector<Tensor>& hidden) {
  const EstimatorConfig& config = model.config_;
  const size_t e = model.experts_.size();
  std::vector<Tensor> new_hidden(e);
  std::vector<Tensor> masked(e);
  for (size_t i = 0; i < e; ++i) {
    const DeepRestEstimator::Expert& expert = model.experts_[i];
    masked[i] = config.use_api_mask ? Hadamard(Sigmoid(leaves[*expert.mask]), x) : x;
    new_hidden[i] = config.use_recurrence
                        ? GruStepReference(leaves, expert.gru, masked[i], hidden[i])
                        : Tanh(LinearReference(leaves, expert.ff, masked[i]));
  }
  Tensor attended;  // Stays undefined under the attention ablation.
  if (config.use_attention) {
    attended = AttentionReference(leaves[*model.alpha_], Tensor::Constant(model.diag_mask_),
                                  new_hidden);
  }
  std::vector<Tensor> outputs(e);
  for (size_t i = 0; i < e; ++i) {
    const DeepRestEstimator::Expert& expert = model.experts_[i];
    outputs[i] = ExpertHeadReference(leaves, attended, i, new_hidden[i], expert.head,
                                     config.use_linear_bypass ? &expert.skip : nullptr,
                                     masked[i]);
  }
  hidden = std::move(new_hidden);
  return outputs;
}

std::vector<Tensor> ReferenceGraph::ZeroState(const DeepRestEstimator& model) {
  std::vector<Tensor> hidden(model.experts_.size());
  for (auto& state : hidden) {
    state = Tensor::Constant(Matrix(model.config_.hidden_dim, 1));
  }
  return hidden;
}

std::vector<Tensor> ReferenceGraph::WarmState(const DeepRestEstimator& model,
                                              const TapeLeaves& leaves) {
  NoGradGuard no_grad;
  std::vector<Tensor> hidden = ZeroState(model);
  if (model.config_.warm_start) {
    for (const auto& raw : model.learn_features_) {
      StepAllReference(model, leaves, ScaledInput(model, raw), hidden);
    }
  }
  return hidden;
}

std::vector<float> ReferenceGraph::ReplayWarmStart(const DeepRestEstimator& model) {
  std::vector<float> flat;
  for (const Tensor& h : WarmState(model, TapeLeaves(model.store_))) {
    flat.insert(flat.end(), h.value().data(), h.value().data() + h.value().size());
  }
  return flat;
}

const std::vector<float>& ReferenceGraph::WarmStartCache(const DeepRestEstimator& model) {
  return model.warm_hidden_;
}

EstimateMap ReferenceGraph::EstimateFromFeaturesReference(const DeepRestEstimator& model,
                                                          const FeatureSeries& features) {
  NoGradGuard no_grad;
  const TapeLeaves leaves(model.store_);
  std::vector<Tensor> hidden = WarmState(model, leaves);
  EstimateMap out;
  for (const auto& expert : model.experts_) {
    out.emplace(expert.key, ResourceEstimate());
  }
  for (const auto& raw : features) {
    const std::vector<Tensor> outputs =
        StepAllReference(model, leaves, ScaledInput(model, raw), hidden);
    for (size_t i = 0; i < outputs.size(); ++i) {
      const Matrix& y = outputs[i].value();
      const double scale = model.experts_[i].y_scale;
      const double expected = std::max(0.0, static_cast<double>(y.At(0, 0)) * scale);
      const double lower = std::max(0.0, static_cast<double>(y.At(1, 0)) * scale);
      const double upper = std::max(0.0, static_cast<double>(y.At(2, 0)) * scale);
      ResourceEstimate& estimate = out.at(model.experts_[i].key);
      estimate.expected.push_back(expected);
      estimate.lower.push_back(std::min(lower, expected));
      estimate.upper.push_back(std::max(upper, expected));
    }
  }
  return out;
}

std::map<MetricKey, std::vector<float>> ReferenceGraph::HiddenTrajectoriesReference(
    const DeepRestEstimator& model, const FeatureSeries& features) {
  NoGradGuard no_grad;
  const TapeLeaves leaves(model.store_);
  std::vector<Tensor> hidden = ZeroState(model);
  std::map<MetricKey, std::vector<float>> trajectories;
  for (const auto& expert : model.experts_) {
    trajectories[expert.key];
  }
  for (const auto& raw : features) {
    StepAllReference(model, leaves, ScaledInput(model, raw), hidden);
    for (size_t i = 0; i < hidden.size(); ++i) {
      const Matrix& h = hidden[i].value();
      auto& out = trajectories[model.experts_[i].key];
      out.insert(out.end(), h.data(), h.data() + h.size());
    }
  }
  return trajectories;
}

const ReferenceGraph::FeatureSeries& ReferenceGraph::LearnFeatures(
    const DeepRestEstimator& model) {
  return model.learn_features_;
}

ParameterStore& ReferenceGraph::Parameters(DeepRestEstimator& model) { return model.store_; }

std::vector<std::vector<float>> ReferenceGraph::ScaledTargets(const DeepRestEstimator& model,
                                                              const MetricsStore& metrics,
                                                              size_t from, size_t to) {
  std::vector<std::vector<float>> targets;
  for (const auto& expert : model.experts_) {
    std::vector<float>& series = targets.emplace_back();
    for (double v : metrics.Series(expert.key, from, to)) {
      series.push_back(static_cast<float>(v / expert.y_scale));
    }
  }
  return targets;
}

Tensor ReferenceGraph::ChunkLoss(const DeepRestEstimator& model, const TapeLeaves& leaves,
                                 const FeatureSeries& features,
                                 const std::vector<std::vector<float>>& targets, size_t begin,
                                 size_t end, std::vector<Tensor>& hidden) {
  const float delta = model.config_.delta;
  const std::vector<float> deltas = {0.5f, (1.0f - delta) / 2.0f,
                                     delta + (1.0f - delta) / 2.0f};
  std::vector<Tensor> losses;
  for (size_t t = begin; t < end; ++t) {
    const std::vector<Tensor> outputs =
        StepAllReference(model, leaves, ScaledInput(model, features[t]), hidden);
    for (size_t i = 0; i < outputs.size(); ++i) {
      losses.push_back(PinballLoss(outputs[i], targets[i][t], deltas));
    }
  }
  return Affine(AddN(losses), 1.0f / static_cast<float>(losses.size()), 0.0f);
}

float ReferenceGraph::TrainerChunk(DeepRestEstimator& model, const FeatureSeries& features,
                                   const std::vector<std::vector<float>>& targets,
                                   size_t begin, size_t end, std::vector<float>& hidden) {
  DeepRestEstimator::TrainScratch scratch;
  return model.TrainChunk(features, targets, begin, end, hidden, scratch);
}

void ReferenceGraph::RunTrainingReference(DeepRestEstimator& model,
                                          const FeatureSeries& features,
                                          const std::vector<std::vector<float>>& targets,
                                          size_t epochs, float learning_rate,
                                          bool decay_masks) {
  const EstimatorConfig& config = model.config_;
  AdamOptimizer optimizer(model.store_, learning_rate);
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<Tensor> hidden = ZeroState(model);
    double epoch_loss = 0.0;
    size_t loss_terms = 0;
    for (size_t begin = 0; begin < features.size(); begin += config.bptt_chunk) {
      const size_t end = std::min(features.size(), begin + config.bptt_chunk);
      const TapeLeaves leaves(model.store_);
      const Tensor loss = ChunkLoss(model, leaves, features, targets, begin, end, hidden);
      loss.Backward();
      leaves.CopyGradients(model.store_);
      ClipGradNorm(model.store_, config.grad_clip);
      optimizer.Step();
      if (decay_masks && config.use_api_mask && config.mask_decay > 0.0f) {
        for (auto& expert : model.experts_) {
          Matrix& logits = expert.mask->value;
          for (size_t d = 0; d < logits.size(); ++d) {
            logits[d] -= config.mask_decay;
          }
        }
      }
      const size_t terms = (end - begin) * model.experts_.size();
      epoch_loss += static_cast<double>(loss.scalar()) * static_cast<double>(terms);
      loss_terms += terms;
      // Truncate gradient flow at the chunk boundary.
      for (auto& state : hidden) {
        state = state.Detach();
      }
    }
    model.epoch_losses_.push_back(
        static_cast<float>(epoch_loss / std::max<size_t>(1, loss_terms)));
  }
}

Tensor ReferenceGraph::ScaledInput(const DeepRestEstimator& model,
                                   const std::vector<float>& raw) {
  Matrix x(model.feature_scale_.size(), 1);
  model.ScaleWindow(raw, x.data());
  return Tensor::Constant(std::move(x));
}

}  // namespace deeprest

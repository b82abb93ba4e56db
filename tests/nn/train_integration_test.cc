// End-to-end learning sanity checks for the tests' oracle: small recurrent
// models composed on the tape (GruStepReference, LinearReference) and trained
// with the production optimizer must actually fit simple
// sequence-to-sequence tasks. These protect against subtle autograd bugs that
// per-op gradient checks can miss (e.g. hidden-state wiring across steps).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/optimizer.h"
#include "src/nn/rng.h"
#include "tests/testing/ops.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

TEST(TrainIntegrationTest, GruLearnsRunningMean) {
  // Target: exponential moving average of a scalar input stream.
  ParameterStore store;
  Rng rng(1);
  GruCell cell(store, "gru", 1, 8, rng);
  Linear head(store, "head", 8, 1, rng);
  AdamOptimizer opt(store, 0.02f);

  const int kSteps = 30;
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> targets;
  Rng data_rng(2);
  for (int s = 0; s < 8; ++s) {
    std::vector<float> xs;
    std::vector<float> ys;
    float ema = 0.0f;
    for (int t = 0; t < kSteps; ++t) {
      const float x = static_cast<float>(data_rng.Uniform(0.0, 1.0));
      ema = 0.8f * ema + 0.2f * x;
      xs.push_back(x);
      ys.push_back(ema);
    }
    inputs.push_back(xs);
    targets.push_back(ys);
  }

  auto epoch_loss = [&]() {
    float total = 0.0f;
    for (size_t s = 0; s < inputs.size(); ++s) {
      const TapeLeaves leaves(store);
      Tensor h = Tensor::Constant(Matrix(8, 1));
      std::vector<Tensor> losses;
      for (int t = 0; t < kSteps; ++t) {
        Tensor x = Tensor::Constant(Matrix::Column({inputs[s][t]}));
        h = GruStepReference(leaves, cell, x, h);
        Tensor y = LinearReference(leaves, head, h);
        losses.push_back(SquaredError(y, Matrix::Column({targets[s][t]})));
      }
      Tensor loss = AddN(losses);
      loss.Backward();
      leaves.CopyGradients(store);
      ClipGradNorm(store, 5.0f);
      opt.Step();
      total += loss.scalar();
    }
    return total / static_cast<float>(inputs.size() * kSteps);
  };

  const float initial = epoch_loss();
  float final_loss = initial;
  for (int e = 0; e < 60; ++e) {
    final_loss = epoch_loss();
  }
  EXPECT_LT(final_loss, initial * 0.2f) << "GRU failed to learn EMA";
  EXPECT_LT(final_loss, 5e-3f);
}

TEST(TrainIntegrationTest, GruLearnsCumulativeSum) {
  // Cumulative behaviour matters for the disk-usage resource in DeepRest:
  // utilization is the integral of write activity, which only a recurrent
  // model can represent.
  ParameterStore store;
  Rng rng(3);
  GruCell cell(store, "gru", 1, 12, rng);
  Linear head(store, "head", 12, 1, rng);
  AdamOptimizer opt(store, 0.02f);

  const int kSteps = 20;
  Rng data_rng(4);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> targets;
  for (int s = 0; s < 10; ++s) {
    std::vector<float> xs;
    std::vector<float> ys;
    float acc = 0.0f;
    for (int t = 0; t < kSteps; ++t) {
      const float x = data_rng.NextBernoulli(0.4) ? 1.0f : 0.0f;
      acc += 0.05f * x;
      xs.push_back(x);
      ys.push_back(acc);
    }
    inputs.push_back(xs);
    targets.push_back(ys);
  }

  float final_loss = 0.0f;
  for (int e = 0; e < 80; ++e) {
    final_loss = 0.0f;
    for (size_t s = 0; s < inputs.size(); ++s) {
      const TapeLeaves leaves(store);
      Tensor h = Tensor::Constant(Matrix(12, 1));
      std::vector<Tensor> losses;
      for (int t = 0; t < kSteps; ++t) {
        Tensor x = Tensor::Constant(Matrix::Column({inputs[s][t]}));
        h = GruStepReference(leaves, cell, x, h);
        losses.push_back(
            SquaredError(LinearReference(leaves, head, h), Matrix::Column({targets[s][t]})));
      }
      Tensor loss = AddN(losses);
      loss.Backward();
      leaves.CopyGradients(store);
      ClipGradNorm(store, 5.0f);
      opt.Step();
      final_loss += loss.scalar();
    }
    final_loss /= static_cast<float>(inputs.size() * kSteps);
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(TrainIntegrationTest, QuantileHeadsBracketNoisyTarget) {
  // A three-head linear model trained with the paper's quantile loss must
  // produce lower/upper heads that bracket ~90% of noisy observations.
  ParameterStore store;
  Rng rng(5);
  Linear head(store, "head", 1, 3, rng);
  AdamOptimizer opt(store, 0.05f);
  Rng data_rng(6);

  const float kDelta = 0.90f;
  const std::vector<float> deltas = {0.5f, (1.0f - kDelta) / 2.0f, kDelta + (1.0f - kDelta) / 2.0f};
  for (int step = 0; step < 3000; ++step) {
    const float x = static_cast<float>(data_rng.Uniform(0.0, 1.0));
    const float y = 2.0f * x + static_cast<float>(data_rng.Gaussian(0.0, 0.2));
    const TapeLeaves leaves(store);
    Tensor pred = LinearReference(leaves, head, Tensor::Constant(Matrix::Column({x})));
    PinballLoss(pred, y, deltas).Backward();
    leaves.CopyGradients(store);
    opt.Step();
  }

  int covered = 0;
  const int kEval = 2000;
  const TapeLeaves leaves(store);
  for (int i = 0; i < kEval; ++i) {
    const float x = static_cast<float>(data_rng.Uniform(0.0, 1.0));
    const float y = 2.0f * x + static_cast<float>(data_rng.Gaussian(0.0, 0.2));
    Tensor pred = LinearReference(leaves, head, Tensor::Constant(Matrix::Column({x})));
    const float lo = pred.value().At(1, 0);
    const float hi = pred.value().At(2, 0);
    EXPECT_LE(lo, hi);
    if (y >= lo && y <= hi) {
      ++covered;
    }
  }
  const float coverage = static_cast<float>(covered) / kEval;
  EXPECT_GT(coverage, 0.82f);
  EXPECT_LT(coverage, 0.97f);
}

}  // namespace
}  // namespace deeprest

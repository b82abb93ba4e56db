// The fused GRU step vs its elementary-op composition.
//
// FusedGruStep (the graph node GruCell::Step builds for the tape-trained
// baseline) promises BIT-EXACT values and gradients relative to the
// elementary composition it replaces (the tests' oracle,
// tests/testing/reference_graph.h): each gradient buffer receives the same
// += contributions in the same order through the same kernels. These tests
// assert full bit equality where that holds, not approximate closeness.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/ops.h"
#include "src/nn/rng.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Bit-exactness holds under the TRAINING loss topology: every step's output
// feeds the loss (here AddN of per-step sums, like the estimator's per-step
// pinball losses). The reverse sweep then processes each step as one
// contiguous block in both graphs, so every gradient buffer sees identical
// += order. With a loss on only the FINAL state, the reference graph's
// wz@x matmul — whose parents are both already-visited leaves — is
// post-ordered ascending across steps while everything else stays
// descending, and the match degrades to ~1 ulp (see the test below).
TEST(FusedOpsTest, FusedGruStepMatchesReferenceBitExactUnderTrainingLoss) {
  constexpr size_t kInDim = 9;
  constexpr size_t kHidden = 7;
  constexpr size_t kUnroll = 5;
  Rng rng(32);
  ParameterStore store;
  GruCell gru(store, "gru", kInDim, kHidden, rng);
  Matrix x_value(kInDim, 1);
  x_value.FillUniform(rng, 1.0f);
  const Tensor x = Tensor::Constant(x_value);

  const auto run = [&](bool fused) {
    Tensor h = gru.InitialState();
    std::vector<Tensor> losses;
    for (size_t t = 0; t < kUnroll; ++t) {
      h = fused ? gru.Step(x, h) : GruStepReference(gru, x, h);
      losses.push_back(SumAll(h));
    }
    AddN(losses).Backward();
    return h;
  };

  const Tensor h_fused = run(true);
  std::vector<Matrix> fused_grads;
  for (const auto& entry : store.entries()) {
    fused_grads.push_back(entry.tensor.grad());
  }

  store.ZeroGrad();
  const Tensor h_ref = run(false);

  EXPECT_TRUE(BitIdentical(h_fused.value(), h_ref.value()));
  const auto& entries = store.entries();
  ASSERT_EQ(entries.size(), fused_grads.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(BitIdentical(fused_grads[i], entries[i].tensor.grad()))
        << "parameter " << entries[i].name;
  }
}

TEST(FusedOpsTest, FusedGruStepLastStateLossMatchesWithinUlps) {
  // The out-of-contract topology: loss on the final state only. Gradients
  // are mathematically identical but the wz@x contributions accumulate in
  // opposite step order, so equality is approximate, not bitwise.
  constexpr size_t kUnroll = 5;
  Rng rng(32);
  ParameterStore store;
  GruCell gru(store, "gru", 9, 7, rng);
  Matrix x_value(9, 1);
  x_value.FillUniform(rng, 1.0f);
  const Tensor x = Tensor::Constant(x_value);

  const auto run = [&](bool fused) {
    Tensor h = gru.InitialState();
    for (size_t t = 0; t < kUnroll; ++t) {
      h = fused ? gru.Step(x, h) : GruStepReference(gru, x, h);
    }
    SumAll(h).Backward();
  };

  run(true);
  std::vector<Matrix> fused_grads;
  for (const auto& entry : store.entries()) {
    fused_grads.push_back(entry.tensor.grad());
  }
  store.ZeroGrad();
  run(false);

  const auto& entries = store.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const Matrix& ref = entries[i].tensor.grad();
    ASSERT_TRUE(ref.SameShape(fused_grads[i]));
    for (size_t j = 0; j < ref.size(); ++j) {
      EXPECT_NEAR(fused_grads[i][j], ref[j], 1e-6f * (1.0f + std::fabs(ref[j])))
          << entries[i].name << " element " << j;
    }
  }
}

TEST(FusedOpsTest, FusedGruStepIsOneGraphNode) {
  Rng rng(33);
  ParameterStore store;
  GruCell gru(store, "gru", 4, 3, rng);
  Matrix x_value(4, 1);
  x_value.FillUniform(rng, 1.0f);
  const Tensor x = Tensor::Constant(x_value);
  const Tensor h0 = gru.InitialState();

  const uint64_t before = TensorNodesCreated();
  const Tensor h1 = gru.Step(x, h0);
  EXPECT_EQ(TensorNodesCreated() - before, 1u);

  const uint64_t before_ref = TensorNodesCreated();
  const Tensor h1_ref = GruStepReference(gru, x, h0);
  EXPECT_GT(TensorNodesCreated() - before_ref, 10u);
  EXPECT_TRUE(BitIdentical(h1.value(), h1_ref.value()));
}

}  // namespace
}  // namespace deeprest

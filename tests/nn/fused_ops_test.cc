// Fused ops vs their elementary-op compositions.
//
// The fused graph nodes (SigmoidMaskMul, FusedGruStep, FusedAttention,
// FusedExpertHead) promise BIT-EXACT values and gradients relative to the
// elementary composition they replace (the tests' oracle,
// tests/testing/reference_graph.h): each gradient buffer receives the same
// += contributions in the same order through the same kernels (see
// DESIGN.md "Performance notes"). These tests assert full bit equality, not
// approximate closeness.
#include <cmath>
#include <cstring>
#include <string>
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

TEST(FusedOpsTest, SigmoidMaskMulMatchesCompositionBitExact) {
  Rng rng(31);
  Matrix mask_value(6, 1), x_value(6, 1);
  mask_value.FillUniform(rng, 2.0f);
  x_value.FillUniform(rng, 2.0f);

  Tensor mask_f = Tensor::Parameter(mask_value);
  Tensor x_f = Tensor::Parameter(x_value);
  Tensor fused = SigmoidMaskMul(mask_f, x_f);
  SumAll(fused).Backward();

  Tensor mask_r = Tensor::Parameter(mask_value);
  Tensor x_r = Tensor::Parameter(x_value);
  Tensor composed = Hadamard(Sigmoid(mask_r), x_r);
  SumAll(composed).Backward();

  EXPECT_TRUE(BitIdentical(fused.value(), composed.value()));
  EXPECT_TRUE(BitIdentical(mask_f.grad(), mask_r.grad()));
  EXPECT_TRUE(BitIdentical(x_f.grad(), x_r.grad()));
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

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.FillUniform(rng, 1.0f);
  return m;
}

// Attention under the training loss topology: one alpha shared by kSteps
// steps, each step's output feeding the loss through a random weighting (as
// the heads read every row of it).
TEST(FusedOpsTest, FusedAttentionMatchesCompositionBitExact) {
  constexpr size_t kExperts = 5;
  constexpr size_t kHidden = 3;
  constexpr size_t kSteps = 4;
  Rng rng(34);
  const Matrix alpha_value = RandomMatrix(kExperts, kExperts, rng);
  Matrix diag_value(kExperts, kExperts, 1.0f);
  for (size_t i = 0; i < kExperts; ++i) {
    diag_value.At(i, i) = 0.0f;
  }
  const Tensor diag = Tensor::Constant(diag_value);
  std::vector<std::vector<Matrix>> hidden_values(kSteps);
  std::vector<Tensor> weights;
  for (size_t t = 0; t < kSteps; ++t) {
    for (size_t e = 0; e < kExperts; ++e) {
      hidden_values[t].push_back(RandomMatrix(kHidden, 1, rng));
    }
    weights.push_back(Tensor::Constant(RandomMatrix(kExperts, kHidden, rng)));
  }

  struct Run {
    Tensor alpha;
    std::vector<std::vector<Tensor>> hidden;
    std::vector<Tensor> outputs;
  };
  const auto run = [&](bool fused) {
    Run r;
    r.alpha = Tensor::Parameter(alpha_value);
    std::vector<Tensor> losses;
    for (size_t t = 0; t < kSteps; ++t) {
      std::vector<Tensor>& h = r.hidden.emplace_back();
      for (const Matrix& value : hidden_values[t]) {
        h.push_back(Tensor::Parameter(value));
      }
      r.outputs.push_back(fused ? FusedAttention(r.alpha, diag, h)
                                : AttentionReference(r.alpha, diag, h));
      losses.push_back(SumAll(Hadamard(r.outputs.back(), weights[t])));
    }
    AddN(losses).Backward();
    return r;
  };

  const Run fused = run(true);
  const Run composed = run(false);
  EXPECT_TRUE(BitIdentical(fused.alpha.grad(), composed.alpha.grad()));
  for (size_t t = 0; t < kSteps; ++t) {
    EXPECT_TRUE(BitIdentical(fused.outputs[t].value(), composed.outputs[t].value()))
        << "step " << t;
    for (size_t e = 0; e < kExperts; ++e) {
      EXPECT_TRUE(BitIdentical(fused.hidden[t][e].grad(), composed.hidden[t][e].grad()))
          << "step " << t << " expert " << e;
    }
  }
}

// The output head under the training loss topology: shared head and skip
// weights, every expert row of every step feeding a pinball loss. Covers the
// attention ablation (undefined `attended`) and no bypass (undefined skip
// tensors).
TEST(FusedOpsTest, FusedExpertHeadMatchesCompositionBitExact) {
  constexpr size_t kExperts = 4;
  constexpr size_t kHidden = 3;
  constexpr size_t kFeatures = 7;
  constexpr size_t kSteps = 3;
  const std::vector<float> deltas = {0.5f, 0.05f, 0.95f};
  for (const bool attention : {true, false}) {
    for (const bool bypass : {true, false}) {
      SCOPED_TRACE(std::string(attention ? "attention" : "no attention") +
                   (bypass ? ", bypass" : ", no bypass"));
      Rng rng(35);
      std::vector<Matrix> attended_values, h_values, xm_values;
      std::vector<float> targets;
      for (size_t t = 0; t < kSteps; ++t) {
        attended_values.push_back(RandomMatrix(kExperts, kHidden, rng));
        for (size_t i = 0; i < kExperts; ++i) {
          h_values.push_back(RandomMatrix(kHidden, 1, rng));
          xm_values.push_back(RandomMatrix(kFeatures, 1, rng));
          targets.push_back(static_cast<float>(rng.Uniform(0.0, 1.0)));
        }
      }

      struct Run {
        ParameterStore store;
        std::vector<Tensor> attended, h, xm, outputs;
      };
      const auto run = [&](bool fused) {
        Run r;
        Rng init(36);
        const Linear head(r.store, "head", 2 * kHidden, 3, init);
        const Linear skip(r.store, "skip", kFeatures, 3, init);
        // Linear starts its biases at zero, which would hide how the
        // (head + hb) + (skip + sb) sum associates.
        for (Tensor bias : {head.bias(), skip.bias()}) {
          bias.mutable_value() = RandomMatrix(3, 1, init);
        }
        const Tensor undefined;
        std::vector<Tensor> losses;
        for (size_t t = 0; t < kSteps; ++t) {
          r.attended.push_back(attention ? Tensor::Parameter(attended_values[t]) : undefined);
          for (size_t i = 0; i < kExperts; ++i) {
            const size_t k = t * kExperts + i;
            r.h.push_back(Tensor::Parameter(h_values[k]));
            r.xm.push_back(Tensor::Parameter(xm_values[k]));
            const Tensor& a = r.attended.back();
            r.outputs.push_back(
                fused ? FusedExpertHead(a, i, r.h.back(), head.weight(), head.bias(),
                                        bypass ? r.xm.back() : undefined,
                                        bypass ? skip.weight() : undefined,
                                        bypass ? skip.bias() : undefined)
                      : ExpertHeadReference(a, i, r.h.back(), head, bypass ? &skip : nullptr,
                                            r.xm.back()));
            losses.push_back(PinballLoss(r.outputs.back(), targets[k], deltas));
          }
        }
        AddN(losses).Backward();
        return r;
      };

      const Run fused = run(true);
      const Run composed = run(false);
      for (size_t k = 0; k < fused.outputs.size(); ++k) {
        EXPECT_TRUE(BitIdentical(fused.outputs[k].value(), composed.outputs[k].value()))
            << "output " << k;
        EXPECT_TRUE(BitIdentical(fused.h[k].grad(), composed.h[k].grad())) << "h " << k;
        if (bypass) {
          EXPECT_TRUE(BitIdentical(fused.xm[k].grad(), composed.xm[k].grad())) << "xm " << k;
        }
      }
      for (size_t t = 0; attention && t < kSteps; ++t) {
        EXPECT_TRUE(BitIdentical(fused.attended[t].grad(), composed.attended[t].grad()))
            << "attended " << t;
      }
      const auto& entries = fused.store.entries();
      for (size_t p = 0; p < entries.size(); ++p) {
        EXPECT_TRUE(BitIdentical(entries[p].tensor.grad(),
                                 composed.store.entries()[p].tensor.grad()))
            << entries[p].name;
      }
    }
  }
}

}  // namespace
}  // namespace deeprest

// Property-style parameterized sweeps over the nn module: gradient
// correctness and invariants must hold across layer shapes, quantile levels,
// and seeds — not just the single configurations unit tests pin down.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"
#include "tests/testing/gradcheck.h"
#include "tests/testing/ops.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

// ---- GRU invariants across (in_dim, hidden_dim, seed) ----

class GruShapeSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// The first link of the chain of checks: numerical gradients check the
// oracle's GRU step, and the oracle checks production's BPTT bit for bit
// (fused_graph_test.cc, baselines_test.cc).
TEST_P(GruShapeSweep, GradientMatchesNumerical) {
  const auto [in_dim, hidden_dim, seed] = GetParam();
  ParameterStore store;
  Rng rng(static_cast<uint64_t>(seed));
  GruCell cell(store, "gru", in_dim, hidden_dim, rng);
  std::vector<Matrix> inputs;
  for (int t = 0; t < 2; ++t) {
    Matrix x(in_dim, 1);
    x.FillUniform(rng, 1.0f);
    inputs.push_back(x);
  }
  const TapeLeaves leaves(store);
  std::vector<Tensor> params;
  for (const auto& entry : store.entries()) {
    params.push_back(leaves[entry]);
  }
  ExpectGradientsMatch(params, [&] {
    Tensor h = Tensor::Constant(Matrix(hidden_dim, 1));
    for (const auto& x : inputs) {
      h = GruStepReference(leaves, cell, Tensor::Constant(x), h);
    }
    return SumAll(Hadamard(h, h));
  });
}

TEST_P(GruShapeSweep, ParameterCountFormula) {
  const auto [in_dim, hidden_dim, seed] = GetParam();
  ParameterStore store;
  Rng rng(static_cast<uint64_t>(seed));
  GruCell cell(store, "gru", in_dim, hidden_dim, rng);
  const size_t expected = 3u * (static_cast<size_t>(hidden_dim) * in_dim +
                                static_cast<size_t>(hidden_dim) * hidden_dim + hidden_dim);
  EXPECT_EQ(store.TotalParameters(), expected);
  EXPECT_EQ(cell.FlattenedParameters().size(), expected);
}

TEST_P(GruShapeSweep, HiddenStateStaysBounded) {
  const auto [in_dim, hidden_dim, seed] = GetParam();
  ParameterStore store;
  Rng rng(static_cast<uint64_t>(seed));
  GruCell cell(store, "gru", in_dim, hidden_dim, rng);
  const TapeLeaves leaves(store);
  Tensor h = Tensor::Constant(Matrix(hidden_dim, 1));
  for (int t = 0; t < 30; ++t) {
    Matrix x(in_dim, 1);
    x.FillUniform(rng, 10.0f);  // extreme inputs
    h = GruStepReference(leaves, cell, Tensor::Constant(x), h);
    for (size_t i = 0; i < h.value().size(); ++i) {
      // Mathematically the state is strictly inside (-1, 1); in float,
      // saturated tanh rounds to exactly +-1, so the bound is inclusive.
      EXPECT_GE(h.value()[i], -1.0f);
      EXPECT_LE(h.value()[i], 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GruShapeSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(1, 4, 2),
                                           std::make_tuple(3, 2, 3),
                                           std::make_tuple(5, 5, 4),
                                           std::make_tuple(8, 3, 5)));

// ---- Pinball loss: the minimizer is the requested quantile, for any q ----

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, MinimizerConvergesToEmpiricalQuantile) {
  const double q = GetParam();
  // Data: uniform over {0, 1, ..., 99}; the q-quantile is ~100q.
  Tensor pred = Tensor::Parameter(Matrix::Column({50.0f}));
  Rng rng(7);
  for (int step = 0; step < 30000; ++step) {
    const float y = static_cast<float>(rng.NextBelow(100));
    pred.node()->EnsureGrad();
    pred.mutable_grad().Zero();
    PinballLoss(pred, y, {static_cast<float>(q)}).Backward();
    pred.mutable_value().AddScaled(pred.grad(), -0.05f);
  }
  EXPECT_NEAR(pred.value().At(0, 0), 100.0 * q, 6.0) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95));

// ---- Optimizers converge across learning rates ----

class AdamLrSweep : public ::testing::TestWithParam<float> {};

TEST_P(AdamLrSweep, ConvergesOnQuadratic) {
  const float lr = GetParam();
  ParameterStore store;
  Parameter& p = store.Create("p", Matrix(1, 1, 8.0f));
  AdamOptimizer opt(store, lr);
  for (int i = 0; i < 12000; ++i) {
    // The gradient of 0.5 * (p + 1)^2.
    p.grad.At(0, 0) = p.value.At(0, 0) - -1.0f;
    opt.Step();
  }
  EXPECT_NEAR(p.value.At(0, 0), -1.0f, 0.05f) << "lr=" << lr;
}

INSTANTIATE_TEST_SUITE_P(LearningRates, AdamLrSweep,
                         ::testing::Values(0.003f, 0.01f, 0.03f, 0.1f));

// ---- Gradient-clipping invariant across thresholds ----

class ClipSweep : public ::testing::TestWithParam<float> {};

TEST_P(ClipSweep, PostClipNormNeverExceedsThreshold) {
  const float max_norm = GetParam();
  ParameterStore store;
  Rng rng(11);
  store.Create("a", Matrix(4, 4)).grad.FillUniform(rng, 10.0f);
  store.Create("b", Matrix(3, 1)).grad.FillUniform(rng, 10.0f);
  ClipGradNorm(store, max_norm);
  double total = 0.0;
  for (const auto& entry : store.entries()) {
    const Matrix& g = entry.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  EXPECT_LE(std::sqrt(total), max_norm * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ClipSweep, ::testing::Values(0.1f, 1.0f, 5.0f, 100.0f));

// ---- Kernel-mode lifecycle across random mode/ISA sequences ----

// A fixture-level guard: every test leaves the process-global kernel state
// as it found it, whatever the random walk did.
class KernelModeWalk : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override {
    simd::ResetIsa();
    SetKernelMode(KernelMode::kTiled);
  }
};

TEST_P(KernelModeWalk, RandomModeAndIsaSequencesKeepInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const KernelMode modes[] = {KernelMode::kTiled, KernelMode::kReference, KernelMode::kSimd};
  const simd::Isa rungs[] = {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512,
                             simd::Isa::kNeon};
  Matrix a(5, 9), b(9, 3), tiled_out, walk_out;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  SetKernelMode(KernelMode::kTiled);
  MatMulInto(a, b, tiled_out);

  for (int step = 0; step < 64; ++step) {
    const KernelMode mode = modes[static_cast<size_t>(rng.Uniform(0.0, 3.0))];
    SetKernelMode(mode);
    // Round-trip: the setter is the only writer, so the getter must agree.
    EXPECT_EQ(GetKernelMode(), mode);

    const simd::Isa forced = rungs[static_cast<size_t>(rng.Uniform(0.0, 4.0))];
    simd::ForceIsa(forced);
    // Fallback: whatever was requested, the active rung is one the host
    // can execute — an unsupported force clamps down the ladder instead of
    // selecting an illegal-instruction kernel table.
    EXPECT_TRUE(simd::IsaSupported(simd::ActiveIsa()));
    EXPECT_LE(static_cast<int>(simd::ActiveIsa()), static_cast<int>(simd::BestSupportedIsa()));

    // And the selected configuration actually computes: the bit-exactness
    // contract holds for the mat-mat path in every mode on every rung.
    MatMulInto(a, b, walk_out);
    if (mode != KernelMode::kReference) {
      for (size_t i = 0; i < tiled_out.size(); ++i) {
        ASSERT_EQ(walk_out[i], tiled_out[i]) << "mode " << static_cast<int>(mode) << " isa "
                                             << simd::IsaName(simd::ActiveIsa());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelModeWalk, ::testing::Values(1, 7, 42, 1337));

}  // namespace
}  // namespace deeprest

#include "tests/testing/ops.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/rng.h"
#include "tests/testing/gradcheck.h"

namespace deeprest {
namespace {

Tensor RandomParam(size_t rows, size_t cols, Rng& rng, float scale = 0.5f) {
  Matrix m(rows, cols);
  m.FillUniform(rng, scale);
  return Tensor::Parameter(m);
}

TEST(OpsTest, AddForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{1, 2}}));
  Tensor b = Tensor::Constant(Matrix::FromRows({{3, 4}}));
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.value().At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.value().At(0, 1), 6.0f);
}

TEST(OpsTest, SubForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{5, 2}}));
  Tensor b = Tensor::Constant(Matrix::FromRows({{3, 4}}));
  Tensor c = Sub(a, b);
  EXPECT_FLOAT_EQ(c.value().At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.value().At(0, 1), -2.0f);
}

TEST(OpsTest, HadamardForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{2, 3}}));
  Tensor b = Tensor::Constant(Matrix::FromRows({{4, 5}}));
  Tensor c = Hadamard(a, b);
  EXPECT_FLOAT_EQ(c.value().At(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(c.value().At(0, 1), 15.0f);
}

TEST(OpsTest, AffineForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{1, -2}}));
  Tensor c = Affine(a, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.value().At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c.value().At(0, 1), 3.0f);
}

TEST(OpsTest, SigmoidForwardRange) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{-100, 0, 100}}));
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.value().At(0, 0), 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(s.value().At(0, 1), 0.5f);
  EXPECT_NEAR(s.value().At(0, 2), 1.0f, 1e-6f);
}

TEST(OpsTest, TanhForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{0.0f}}));
  EXPECT_FLOAT_EQ(Tanh(a).scalar(), 0.0f);
}

TEST(OpsTest, ReluForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{-1, 0, 2}}));
  Tensor r = Relu(a);
  EXPECT_FLOAT_EQ(r.value().At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.value().At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(r.value().At(0, 2), 2.0f);
}

TEST(OpsTest, ExpForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{0, 1}}));
  Tensor e = Exp(a);
  EXPECT_FLOAT_EQ(e.value().At(0, 0), 1.0f);
  EXPECT_NEAR(e.value().At(0, 1), std::exp(1.0f), 1e-5f);
}

TEST(OpsTest, MatMulForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{1, 2}, {3, 4}}));
  Tensor x = Tensor::Constant(Matrix::Column({1, 1}));
  Tensor y = MatMul(a, x);
  EXPECT_FLOAT_EQ(y.value().At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.value().At(1, 0), 7.0f);
}

TEST(OpsTest, ConcatRowsForward) {
  Tensor a = Tensor::Constant(Matrix::Column({1, 2}));
  Tensor b = Tensor::Constant(Matrix::Column({3}));
  Tensor c = ConcatRows(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_FLOAT_EQ(c.value().At(2, 0), 3.0f);
}

TEST(OpsTest, StackColumnsForward) {
  Tensor a = Tensor::Constant(Matrix::Column({1, 2}));
  Tensor b = Tensor::Constant(Matrix::Column({3, 4}));
  Tensor s = StackColumns({a, b});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_FLOAT_EQ(s.value().At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(s.value().At(1, 0), 3.0f);
}

TEST(OpsTest, RowAsColumnForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{1, 2}, {3, 4}}));
  Tensor r = RowAsColumn(a, 1);
  EXPECT_EQ(r.rows(), 2u);
  EXPECT_EQ(r.cols(), 1u);
  EXPECT_FLOAT_EQ(r.value().At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(r.value().At(1, 0), 4.0f);
}

TEST(OpsTest, SumMeanForward) {
  Tensor a = Tensor::Constant(Matrix::FromRows({{1, 2}, {3, 4}}));
  EXPECT_FLOAT_EQ(SumAll(a).scalar(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).scalar(), 2.5f);
}

TEST(OpsTest, AddNForward) {
  Tensor a = Tensor::Constant(Matrix(1, 1, 1.0f));
  Tensor b = Tensor::Constant(Matrix(1, 1, 2.0f));
  Tensor c = Tensor::Constant(Matrix(1, 1, 3.0f));
  EXPECT_FLOAT_EQ(AddN({a, b, c}).scalar(), 6.0f);
}

TEST(OpsTest, PinballForwardMatchesDefinition) {
  // pred = 1.0, target = 0.0, delta = 0.9: u = -1 < 0 -> (0.9 - 1) * -1 = 0.1
  // (over-prediction is cheap for a high quantile).
  Tensor pred = Tensor::Constant(Matrix::Column({1.0f}));
  EXPECT_FLOAT_EQ(PinballLoss(pred, 0.0f, {0.9f}).scalar(), 0.1f);
  // pred = -1.0: u = 1 >= 0 -> 0.9 * 1 (under-prediction is expensive).
  Tensor pred2 = Tensor::Constant(Matrix::Column({-1.0f}));
  EXPECT_FLOAT_EQ(PinballLoss(pred2, 0.0f, {0.9f}).scalar(), 0.9f);
}

TEST(OpsTest, PinballThreeHeadLoss) {
  Tensor pred = Tensor::Constant(Matrix::Column({1.0f, 0.5f, 2.0f}));
  const float target = 1.0f;
  Tensor loss = PinballLoss(pred, target, {0.5f, 0.05f, 0.95f});
  // head0: u=0 -> 0; head1: u=0.5 -> 0.05*0.5=0.025; head2: u=-1 -> 0.05.
  EXPECT_NEAR(loss.scalar(), 0.0f + 0.025f + 0.05f, 1e-5f);
}

TEST(OpsTest, PinballMinimizerIsQuantile) {
  // Directly verify the convention: for data {0..9}, the 0.1-quantile head
  // should settle near the low end, the 0.9-quantile head near the high end.
  Tensor pred = Tensor::Parameter(Matrix::Column({5.0f, 5.0f}));
  for (int step = 0; step < 4000; ++step) {
    const float y = static_cast<float>(step % 10);
    pred.node()->EnsureGrad();
    pred.mutable_grad().Zero();
    PinballLoss(pred, y, {0.1f, 0.9f}).Backward();
    pred.mutable_value().AddScaled(pred.grad(), -0.01f);
  }
  EXPECT_LT(pred.value().At(0, 0), 2.5f);
  EXPECT_GT(pred.value().At(1, 0), 6.5f);
}

TEST(OpsTest, SquaredErrorForward) {
  Tensor pred = Tensor::Constant(Matrix::Column({3.0f}));
  EXPECT_FLOAT_EQ(SquaredError(pred, Matrix::Column({1.0f})).scalar(), 2.0f);
}

// ----- Gradient checks -----

TEST(OpsGradTest, AddGradient) {
  Rng rng(1);
  Tensor a = RandomParam(3, 2, rng);
  Tensor b = RandomParam(3, 2, rng);
  ExpectGradientsMatch({a, b}, [&] { return SumAll(Hadamard(Add(a, b), Add(a, b))); });
}

TEST(OpsGradTest, SubGradient) {
  Rng rng(2);
  Tensor a = RandomParam(2, 2, rng);
  Tensor b = RandomParam(2, 2, rng);
  ExpectGradientsMatch({a, b}, [&] { return SumAll(Hadamard(Sub(a, b), Sub(a, b))); });
}

TEST(OpsGradTest, HadamardGradient) {
  Rng rng(3);
  Tensor a = RandomParam(3, 1, rng);
  Tensor b = RandomParam(3, 1, rng);
  ExpectGradientsMatch({a, b}, [&] { return SumAll(Hadamard(a, b)); });
}

TEST(OpsGradTest, AffineGradient) {
  Rng rng(4);
  Tensor a = RandomParam(2, 3, rng);
  ExpectGradientsMatch({a}, [&] { return SumAll(Hadamard(Affine(a, -2.0f, 0.5f), a)); });
}

TEST(OpsGradTest, MatMulGradient) {
  Rng rng(5);
  Tensor w = RandomParam(4, 3, rng);
  Tensor x = RandomParam(3, 2, rng);
  ExpectGradientsMatch({w, x}, [&] { return SumAll(Hadamard(MatMul(w, x), MatMul(w, x))); });
}

TEST(OpsGradTest, SigmoidGradient) {
  Rng rng(6);
  Tensor a = RandomParam(3, 3, rng, 2.0f);
  ExpectGradientsMatch({a}, [&] { return SumAll(Sigmoid(a)); });
}

TEST(OpsGradTest, TanhGradient) {
  Rng rng(7);
  Tensor a = RandomParam(3, 3, rng, 2.0f);
  ExpectGradientsMatch({a}, [&] { return SumAll(Tanh(a)); });
}

TEST(OpsGradTest, ReluGradientAwayFromKink) {
  Rng rng(8);
  // Shift values away from 0 so finite differences are valid.
  Matrix m(3, 3);
  m.FillUniform(rng, 1.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] += m[i] >= 0.0f ? 0.5f : -0.5f;
  }
  Tensor a = Tensor::Parameter(m);
  ExpectGradientsMatch({a}, [&] { return SumAll(Relu(a)); });
}

TEST(OpsGradTest, ExpGradient) {
  Rng rng(9);
  Tensor a = RandomParam(2, 2, rng, 1.0f);
  ExpectGradientsMatch({a}, [&] { return SumAll(Exp(a)); });
}

TEST(OpsGradTest, ConcatRowsGradient) {
  Rng rng(10);
  Tensor a = RandomParam(2, 1, rng);
  Tensor b = RandomParam(3, 1, rng);
  ExpectGradientsMatch(
      {a, b}, [&] { return SumAll(Hadamard(ConcatRows(a, b), ConcatRows(a, b))); });
}

TEST(OpsGradTest, StackColumnsAndRowAsColumnGradient) {
  Rng rng(11);
  Tensor a = RandomParam(3, 1, rng);
  Tensor b = RandomParam(3, 1, rng);
  Tensor c = RandomParam(3, 1, rng);
  ExpectGradientsMatch({a, b, c}, [&] {
    Tensor stacked = StackColumns({a, b, c});  // 3x3
    Tensor row = RowAsColumn(stacked, 1);      // = b
    return SumAll(Hadamard(row, RowAsColumn(stacked, 2)));
  });
}

TEST(OpsGradTest, MeanAllGradient) {
  Rng rng(12);
  Tensor a = RandomParam(4, 2, rng);
  ExpectGradientsMatch({a}, [&] { return MeanAll(Hadamard(a, a)); });
}

TEST(OpsGradTest, AddNGradient) {
  Rng rng(13);
  Tensor a = RandomParam(1, 1, rng);
  Tensor b = RandomParam(1, 1, rng);
  ExpectGradientsMatch(
      {a, b}, [&] { return AddN({Hadamard(a, a), Hadamard(b, b), Hadamard(a, b)}); });
}

TEST(OpsGradTest, PinballGradientAwayFromKink) {
  // Keep pred far from target so the subgradient is exact.
  Tensor pred = Tensor::Parameter(Matrix::Column({2.0f, -1.0f, 4.0f}));
  ExpectGradientsMatch({pred},
                       [&] { return PinballLoss(pred, 0.5f, {0.5f, 0.05f, 0.95f}); });
}

TEST(OpsGradTest, SquaredErrorGradient) {
  Rng rng(14);
  Tensor pred = RandomParam(4, 1, rng, 2.0f);
  const Matrix target = Matrix::Column({1.0f, -1.0f, 0.5f, 2.0f});
  ExpectGradientsMatch({pred}, [&] { return SquaredError(pred, target); });
}

TEST(OpsGradTest, AttentionPatternGradient) {
  // The exact composite used by the estimator: alpha (masked) x stacked H,
  // then per-expert row extraction — checks gradient flow across experts.
  Rng rng(15);
  Tensor alpha = RandomParam(3, 3, rng);
  Tensor h0 = RandomParam(4, 1, rng);
  Tensor h1 = RandomParam(4, 1, rng);
  Tensor h2 = RandomParam(4, 1, rng);
  Matrix diag_mask = Matrix::FromRows({{0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  Tensor mask = Tensor::Constant(diag_mask);
  ExpectGradientsMatch({alpha, h0, h1, h2}, [&] {
    Tensor stacked = StackColumns({h0, h1, h2});
    Tensor attended = MatMul(Hadamard(alpha, mask), stacked);
    std::vector<Tensor> parts;
    for (size_t i = 0; i < 3; ++i) {
      Tensor a_i = RowAsColumn(attended, i);
      parts.push_back(SumAll(Hadamard(a_i, a_i)));
    }
    return AddN(parts);
  });
}

}  // namespace
}  // namespace deeprest

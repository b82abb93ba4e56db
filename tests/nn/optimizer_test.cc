#include "src/nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace deeprest {
namespace {

// Sets the gradient of 0.5 * (p - target)^2 for a 1 x 1 parameter.
void QuadraticGradient(Parameter& p, float target) {
  p.grad.At(0, 0) = p.value.At(0, 0) - target;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ParameterStore store;
  Parameter& p = store.Create("p", Matrix(1, 1, 10.0f));
  AdamOptimizer opt(store, 0.1f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    QuadraticGradient(p, -3.0f);
    opt.Step();
  }
  EXPECT_NEAR(p.value.At(0, 0), -3.0f, 1e-2f);
}

TEST(AdamTest, FirstStepSizeIsLearningRate) {
  // Adam's bias correction makes the first update ~= lr * sign(grad).
  ParameterStore store;
  Parameter& p = store.Create("p", Matrix(1, 1, 1.0f));
  AdamOptimizer opt(store, 0.01f);
  opt.ZeroGrad();
  QuadraticGradient(p, 0.0f);
  opt.Step();
  EXPECT_NEAR(p.value.At(0, 0), 1.0f - 0.01f, 1e-4f);
}

TEST(AdamTest, HandlesMultipleParameters) {
  ParameterStore store;
  Parameter& a = store.Create("a", Matrix(1, 1, 5.0f));
  Parameter& b = store.Create("b", Matrix(1, 1, -5.0f));
  AdamOptimizer opt(store, 0.05f);
  for (int i = 0; i < 600; ++i) {
    opt.ZeroGrad();
    QuadraticGradient(a, 1.0f);
    QuadraticGradient(b, 2.0f);
    opt.Step();
  }
  EXPECT_NEAR(a.value.At(0, 0), 1.0f, 5e-2f);
  EXPECT_NEAR(b.value.At(0, 0), 2.0f, 5e-2f);
}

TEST(ClipGradNormTest, NoOpBelowThreshold) {
  ParameterStore store;
  Parameter& p = store.Create("p", Matrix(1, 1, 0.0f));
  p.grad.At(0, 0) = 0.5f;
  const float norm = ClipGradNorm(store, 1.0f);
  EXPECT_FLOAT_EQ(norm, 0.5f);
  EXPECT_FLOAT_EQ(p.grad.At(0, 0), 0.5f);
}

TEST(ClipGradNormTest, RescalesAboveThreshold) {
  ParameterStore store;
  Parameter& a = store.Create("a", Matrix(1, 1, 0.0f));
  Parameter& b = store.Create("b", Matrix(1, 1, 0.0f));
  a.grad.At(0, 0) = 3.0f;
  b.grad.At(0, 0) = 4.0f;  // norm 5
  const float norm = ClipGradNorm(store, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(a.grad.At(0, 0), 0.6f, 1e-6f);
  EXPECT_NEAR(b.grad.At(0, 0), 0.8f, 1e-6f);
  // Post-clip norm is the threshold.
  EXPECT_NEAR(std::hypot(a.grad.At(0, 0), b.grad.At(0, 0)), 1.0f, 1e-5f);
}

TEST(ClipGradNormTest, ZeroGradientsStayZero) {
  ParameterStore store;
  store.Create("p", Matrix(2, 2));
  const float norm = ClipGradNorm(store, 1.0f);
  EXPECT_FLOAT_EQ(norm, 0.0f);
}

}  // namespace
}  // namespace deeprest

// Numerical gradient checking utilities shared by the nn test suites.
#ifndef TESTS_TESTING_GRADCHECK_H_
#define TESTS_TESTING_GRADCHECK_H_

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/tensor.h"

namespace deeprest {

// Verifies d(loss)/d(param) for every entry of every parameter against a
// central finite difference of `loss_fn`. `loss_fn` must rebuild the graph
// from the current parameter values and return the scalar loss tensor.
inline void ExpectGradientsMatch(std::vector<Tensor> params,
                                 const std::function<Tensor()>& loss_fn, float epsilon = 1e-3f,
                                 float tolerance = 2e-2f) {
  // Analytic pass.
  for (auto& p : params) {
    p.node()->EnsureGrad();
    p.mutable_grad().Zero();
  }
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<Matrix> analytic;
  analytic.reserve(params.size());
  for (const auto& p : params) {
    analytic.push_back(p.grad());
  }

  // Numerical pass, one coordinate at a time.
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Matrix& value = params[pi].mutable_value();
    for (size_t i = 0; i < value.size(); ++i) {
      const float saved = value[i];
      value[i] = saved + epsilon;
      const float up = loss_fn().scalar();
      value[i] = saved - epsilon;
      const float down = loss_fn().scalar();
      value[i] = saved;
      const float numeric = (up - down) / (2.0f * epsilon);
      const float exact = analytic[pi][i];
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(exact)});
      EXPECT_NEAR(exact, numeric, tolerance * scale)
          << "param " << pi << " entry " << i << " analytic=" << exact
          << " numeric=" << numeric;
    }
  }
}

}  // namespace deeprest

#endif  // TESTS_TESTING_GRADCHECK_H_

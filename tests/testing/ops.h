// Differentiable operations over Tensors: the tape the tests' oracle
// (reference_graph.h, reference_baseline.h) composes the models from.
//
// Shapes follow the paper's formulation: activations are column vectors
// (n x 1); weight matrices multiply from the left. The attention mechanism
// (Eq. 3) is expressed with StackColumns / MatMul / RowAsColumn so that one
// graph node per time step couples all experts. Every op computes with the
// production kernels (MatMulInto, simd::Sigmoid, ...), so production's
// hand-written passes can match a composition of these bit for bit.
#ifndef TESTS_TESTING_OPS_H_
#define TESTS_TESTING_OPS_H_

#include <vector>

#include "tests/testing/tensor.h"

namespace deeprest {

// Element-wise a + b. Shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
// Element-wise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
// Element-wise (Hadamard) product.
Tensor Hadamard(const Tensor& a, const Tensor& b);
// Element-wise affine map: alpha * a + beta.
Tensor Affine(const Tensor& a, float alpha, float beta);
// Matrix product a (n x k) * b (k x m).
Tensor MatMul(const Tensor& a, const Tensor& b);

// Element-wise nonlinearities.
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
// Natural exponential, element-wise (used by softplus-style heads).
Tensor Exp(const Tensor& a);

// Vertically concatenates two tensors with equal column counts.
Tensor ConcatRows(const Tensor& a, const Tensor& b);
// Stacks k column vectors (h x 1 each) into a k x h matrix; row i is the
// transpose of input i.
Tensor StackColumns(const std::vector<Tensor>& columns);
// Extracts row `row` of a (k x h) as an (h x 1) column vector.
Tensor RowAsColumn(const Tensor& a, size_t row);

// Sum of all entries -> 1x1.
Tensor SumAll(const Tensor& a);
// Mean of all entries -> 1x1.
Tensor MeanAll(const Tensor& a);
// Sum of a list of scalars (1x1 tensors) -> 1x1. Avoids a deep Add chain.
Tensor AddN(const std::vector<Tensor>& scalars);

// Quantile (pinball) loss of paper Eq. 5-6, fused over the k prediction heads:
//   sum_i Q(pred[i] - target | delta[i])   with Q(d|q) = max(q*d, (q-1)*d).
// pred is (k x 1); deltas has k entries. Returns a 1x1 tensor.
Tensor PinballLoss(const Tensor& pred, float target, const std::vector<float>& deltas);

// Squared-error loss 0.5 * sum((pred - target)^2) with a constant target.
Tensor SquaredError(const Tensor& pred, const Matrix& target);

}  // namespace deeprest

#endif  // TESTS_TESTING_OPS_H_

#include "tests/testing/ops.h"

#include <cassert>
#include <cmath>

#include "src/nn/simd/dispatch.h"

namespace deeprest {

namespace {

// Accumulates `delta` into parent i of `node` if that parent tracks gradients.
void Accumulate(TensorNode& node, size_t i, const Matrix& delta) {
  TensorNode* p = node.parents[i].node();
  if (p->requires_grad) {
    p->AccumulateGrad(delta);
  }
}

// ---- Backward functions for the basic ops ----
// Plain function pointers: all state lives in the node (see tensor.h).

void AddBackward(TensorNode& node) {
  Accumulate(node, 0, node.grad);
  Accumulate(node, 1, node.grad);
}

void SubBackward(TensorNode& node) {
  Accumulate(node, 0, node.grad);
  TensorNode* p = node.parents[1].node();
  if (p->requires_grad) {
    p->AccumulateGradScaled(node.grad, -1.0f);
  }
}

void HadamardBackward(TensorNode& node) {
  TensorNode* pa = node.parents[0].node();
  TensorNode* pb = node.parents[1].node();
  if (pa->requires_grad) {
    pa->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      pa->grad[i] += node.grad[i] * pb->value[i];
    }
  }
  if (pb->requires_grad) {
    pb->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      pb->grad[i] += node.grad[i] * pa->value[i];
    }
  }
}

void AffineBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->AccumulateGradScaled(node.grad, node.aux0);
  }
}

void MatMulBackward(TensorNode& node) {
  TensorNode* pa = node.parents[0].node();
  TensorNode* pb = node.parents[1].node();
  // dL/dA = dL/dOut * B^T ; dL/dB = A^T * dL/dOut.
  if (pa->requires_grad) {
    pa->EnsureGrad();
    AccumulateABTranspose(node.grad, pb->value, pa->grad);
  }
  if (pb->requires_grad) {
    pb->EnsureGrad();
    AccumulateATransposeB(pa->value, node.grad, pb->grad);
  }
}

void SigmoidBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      const float s = node.value[i];
      p->grad[i] += node.grad[i] * s * (1.0f - s);
    }
  }
}

void TanhBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      const float t = node.value[i];
      p->grad[i] += node.grad[i] * (1.0f - t * t);
    }
  }
}

void ReluBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      if (node.value[i] > 0.0f) {
        p->grad[i] += node.grad[i];
      }
    }
  }
}

void ExpBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) {
      p->grad[i] += node.grad[i] * node.value[i];
    }
  }
}

void ConcatRowsBackward(TensorNode& node) {
  TensorNode* pa = node.parents[0].node();
  TensorNode* pb = node.parents[1].node();
  const size_t na = pa->value.size();
  if (pa->requires_grad) {
    pa->EnsureGrad();
    for (size_t i = 0; i < na; ++i) {
      pa->grad[i] += node.grad[i];
    }
  }
  if (pb->requires_grad) {
    pb->EnsureGrad();
    for (size_t i = 0; i < pb->value.size(); ++i) {
      pb->grad[i] += node.grad[na + i];
    }
  }
}

void StackColumnsBackward(TensorNode& node) {
  const size_t width = node.value.cols();
  for (size_t r = 0; r < node.parents.size(); ++r) {
    TensorNode* p = node.parents[r].node();
    if (!p->requires_grad) {
      continue;
    }
    p->EnsureGrad();
    for (size_t c = 0; c < width; ++c) {
      p->grad.At(c, 0) += node.grad.At(r, c);
    }
  }
}

void RowAsColumnBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    const size_t row = node.aux_index;
    for (size_t c = 0; c < node.value.rows(); ++c) {
      p->grad.At(row, c) += node.grad.At(c, 0);
    }
  }
}

void SumAllBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    const float g = node.grad.At(0, 0);
    for (size_t i = 0; i < p->grad.size(); ++i) {
      p->grad[i] += g;
    }
  }
}

void MeanAllBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (p->requires_grad) {
    p->EnsureGrad();
    const float g = node.grad.At(0, 0) * node.aux0;
    for (size_t i = 0; i < p->grad.size(); ++i) {
      p->grad[i] += g;
    }
  }
}

void AddNBackward(TensorNode& node) {
  for (size_t i = 0; i < node.parents.size(); ++i) {
    Accumulate(node, i, node.grad);
  }
}

void PinballBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (!p->requires_grad) {
    return;
  }
  p->EnsureGrad();
  const float g = node.grad.At(0, 0);
  const float target = node.aux0;
  const Matrix& deltas = node.saved[0];
  for (size_t i = 0; i < deltas.size(); ++i) {
    const float u = target - p->value.At(i, 0);
    const float q = deltas[i];
    // Subgradient at u == 0 follows the u >= 0 branch, matching forward.
    p->grad.At(i, 0) += g * (u >= 0.0f ? -q : 1.0f - q);
  }
}

void SquaredErrorBackward(TensorNode& node) {
  TensorNode* p = node.parents[0].node();
  if (!p->requires_grad) {
    return;
  }
  p->EnsureGrad();
  const Matrix& target = node.saved[0];
  const float g = node.grad.At(0, 0);
  for (size_t i = 0; i < target.size(); ++i) {
    p->grad[i] += g * (p->value[i] - target[i]);
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "add", AddBackward, a, b);
  AddInto(a.value(), b.value(), out.mutable_value());
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "sub", SubBackward, a, b);
  AddScaledInto(a.value(), b.value(), -1.0f, out.mutable_value());
  return out;
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "hadamard", HadamardBackward, a, b);
  HadamardInto(a.value(), b.value(), out.mutable_value());
  return out;
}

Tensor Affine(const Tensor& a, float alpha, float beta) {
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "affine", AffineBackward, a);
  out.node()->aux0 = alpha;
  const Matrix& av = a.value();
  Matrix& ov = out.mutable_value();
  for (size_t i = 0; i < av.size(); ++i) {
    ov[i] = alpha * av[i] + beta;
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out = Tensor::NewOp(a.rows(), b.cols(), "matmul", MatMulBackward, a, b);
  MatMulInto(a.value(), b.value(), out.mutable_value());
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "sigmoid", SigmoidBackward, a);
  simd::Sigmoid(a.value().data(), out.mutable_value().data(), a.value().size());
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "tanh", TanhBackward, a);
  simd::Tanh(a.value().data(), out.mutable_value().data(), a.value().size());
  return out;
}

Tensor Relu(const Tensor& a) {
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "relu", ReluBackward, a);
  const Matrix& av = a.value();
  Matrix& ov = out.mutable_value();
  for (size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i] > 0.0f ? av[i] : 0.0f;
  }
  return out;
}

Tensor Exp(const Tensor& a) {
  Tensor out = Tensor::NewOp(a.rows(), a.cols(), "exp", ExpBackward, a);
  const Matrix& av = a.value();
  Matrix& ov = out.mutable_value();
  for (size_t i = 0; i < av.size(); ++i) {
    ov[i] = std::exp(av[i]);
  }
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.cols());
  Tensor out =
      Tensor::NewOp(a.rows() + b.rows(), a.cols(), "concat_rows", ConcatRowsBackward, a, b);
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix& ov = out.mutable_value();
  for (size_t i = 0; i < av.size(); ++i) {
    ov[i] = av[i];
  }
  for (size_t i = 0; i < bv.size(); ++i) {
    ov[av.size() + i] = bv[i];
  }
  return out;
}

Tensor StackColumns(const std::vector<Tensor>& columns) {
  assert(!columns.empty());
  const size_t h = columns[0].rows();
  Tensor out =
      Tensor::NewOpN(columns.size(), h, "stack_columns", StackColumnsBackward, columns);
  Matrix& ov = out.mutable_value();
  for (size_t r = 0; r < columns.size(); ++r) {
    assert(columns[r].rows() == h && columns[r].cols() == 1);
    const Matrix& col = columns[r].value();
    for (size_t c = 0; c < h; ++c) {
      ov.At(r, c) = col.At(c, 0);
    }
  }
  return out;
}

Tensor RowAsColumn(const Tensor& a, size_t row) {
  assert(row < a.rows());
  Tensor out = Tensor::NewOp(a.cols(), 1, "row_as_column", RowAsColumnBackward, a);
  out.node()->aux_index = row;
  const Matrix& av = a.value();
  Matrix& ov = out.mutable_value();
  for (size_t c = 0; c < av.cols(); ++c) {
    ov.At(c, 0) = av.At(row, c);
  }
  return out;
}

Tensor SumAll(const Tensor& a) {
  Tensor out = Tensor::NewOp(1, 1, "sum_all", SumAllBackward, a);
  out.mutable_value().At(0, 0) = a.value().Sum();
  return out;
}

Tensor MeanAll(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  Tensor out = Tensor::NewOp(1, 1, "mean_all", MeanAllBackward, a);
  out.node()->aux0 = inv;
  out.mutable_value().At(0, 0) = a.value().Sum() * inv;
  return out;
}

Tensor AddN(const std::vector<Tensor>& scalars) {
  assert(!scalars.empty());
  Tensor out = Tensor::NewOpN(1, 1, "add_n", AddNBackward, scalars);
  float acc = 0.0f;
  for (const auto& t : scalars) {
    assert(t.rows() == 1 && t.cols() == 1);
    acc += t.value().At(0, 0);
  }
  out.mutable_value().At(0, 0) = acc;
  return out;
}

Tensor PinballLoss(const Tensor& pred, float target, const std::vector<float>& deltas) {
  assert(pred.cols() == 1 && pred.rows() == deltas.size());
  // Standard quantile convention: rho_q(u) with u = target - pred, so that
  // minimizing drives pred[i] to the deltas[i]-quantile of the target
  // distribution (delta < 0.5 -> lower bound, delta > 0.5 -> upper bound).
  // The paper's Eq. 5 writes Q(pred - target | delta); adopting that sign
  // verbatim would swap the lower/upper heads of Eq. 6.
  Tensor out = Tensor::NewOp(1, 1, "pinball", PinballBackward, pred);
  float acc = 0.0f;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const float u = target - pred.value().At(i, 0);
    const float q = deltas[i];
    acc += u >= 0.0f ? q * u : (q - 1.0f) * u;
  }
  out.mutable_value().At(0, 0) = acc;
  TensorNode* node = out.node();
  if (node->requires_grad) {
    node->aux0 = target;
    node->EnsureSaved(1);
    Matrix& saved = node->saved[0];
    saved.SetShape(deltas.size(), 1);
    for (size_t i = 0; i < deltas.size(); ++i) {
      saved[i] = deltas[i];
    }
  }
  return out;
}

Tensor SquaredError(const Tensor& pred, const Matrix& target) {
  assert(pred.value().SameShape(target));
  Tensor out = Tensor::NewOp(1, 1, "squared_error", SquaredErrorBackward, pred);
  double acc = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    const double d = pred.value()[i] - target[i];
    acc += 0.5 * d * d;
  }
  out.mutable_value().At(0, 0) = static_cast<float>(acc);
  TensorNode* node = out.node();
  if (node->requires_grad) {
    node->EnsureSaved(1);
    Matrix& saved = node->saved[0];
    saved.SetShape(target.rows(), target.cols());
    for (size_t i = 0; i < target.size(); ++i) {
      saved[i] = target[i];
    }
  }
  return out;
}

}  // namespace deeprest

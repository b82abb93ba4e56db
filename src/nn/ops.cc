#include "src/nn/ops.h"

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

// Backward-pass scratch buffers, one set per thread. Backward functions run
// strictly sequentially within one Backward() sweep, so a single set per
// thread is enough; capacity is retained across steps.
struct FusedScratch {
  Matrix ta, tb;                               // forward GEMM temporaries
  Matrix d_omz, d_hc, d_pre, d_kh, d_k, d_z;   // fused GRU backward
};

FusedScratch& Scratch() {
  thread_local FusedScratch scratch;
  return scratch;
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
    // Test-only op: no model path takes an exp outside the sigmoid.
    ov[i] = std::exp(av[i]);  // deeprest-lint: allow(owned-nonlinearities)
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

// ---- Fused GRU step ----
//
// Bit-exactness discipline: floating-point addition is not associative, so
// the fused backward replays the unfused composition's accumulations into
// every destination buffer in the same order, with the same kernels, and
// with intermediate gradients stored at float32 precision exactly where the
// unfused graph stored them in node.grad matrices. Comments name the unfused
// node whose backward each block mirrors.

namespace {

void FusedGruBackward(TensorNode& node) {
  // Unfused graph (the tests' GruStepReference):
  //   z  = Sigmoid(Add(Add(m1: wz@x, m2: uz@h), bz))
  //   k  = Sigmoid(Add(Add(m3: wk@x, m4: uk@h), bk))
  //   hc = Tanh(Add(Add(m5: wh@x, m6: uh@kh), bh)),  kh = k . h
  //   out = Add(p1: z . h, p2: (1 - z) . hc)
  // Reverse topological order of its interior nodes:
  //   out, p2, hc, a6, a5, m6, kh, k, a4, a3, m4, m3, m5, omz, p1, z, a2,
  //   a1, m2, m1 — replayed below.
  TensorNode* x = node.parents[0].node();
  TensorNode* h = node.parents[1].node();
  TensorNode* wz = node.parents[2].node();
  TensorNode* uz = node.parents[3].node();
  TensorNode* bz = node.parents[4].node();
  TensorNode* wk = node.parents[5].node();
  TensorNode* uk = node.parents[6].node();
  TensorNode* bk = node.parents[7].node();
  TensorNode* wh = node.parents[8].node();
  TensorNode* uh = node.parents[9].node();
  TensorNode* bh = node.parents[10].node();
  const Matrix& z = node.saved[0];
  const Matrix& k = node.saved[1];
  const Matrix& hc = node.saved[2];
  const Matrix& kh = node.saved[3];
  const Matrix& g = node.grad;
  const size_t hd = g.rows();
  FusedScratch& s = Scratch();

  // p2 = omz . hc (hadamard): d_omz = g . hc ; d_hc = g . omz.
  s.d_omz.SetShape(hd, 1);
  s.d_hc.SetShape(hd, 1);
  for (size_t i = 0; i < hd; ++i) {
    s.d_omz[i] = g[i] * hc[i];
  }
  for (size_t i = 0; i < hd; ++i) {
    const float omz = -1.0f * z[i] + 1.0f;
    s.d_hc[i] = g[i] * omz;
  }
  // hc = Tanh(a6): d_a6 = d_hc * (1 - hc^2). a6/a5 are pass-through Adds,
  // so d_pre doubles as d_m5 and d_m6.
  s.d_pre.SetShape(hd, 1);
  for (size_t i = 0; i < hd; ++i) {
    const float t = hc[i];
    s.d_pre[i] = s.d_hc[i] * (1.0f - t * t);
  }
  // a6 = Add(a5, bh).
  if (bh->requires_grad) {
    bh->AccumulateGrad(s.d_pre);
  }
  // m6 = MatMul(uh, kh).
  if (uh->requires_grad) {
    uh->EnsureGrad();
    AccumulateABTranspose(s.d_pre, kh, uh->grad);
  }
  s.d_kh.SetShape(hd, 1);
  s.d_kh.Zero();
  AccumulateATransposeB(uh->value, s.d_pre, s.d_kh);
  // kh = Hadamard(k, h).
  s.d_k.SetShape(hd, 1);
  for (size_t i = 0; i < hd; ++i) {
    s.d_k[i] = s.d_kh[i] * h->value[i];
  }
  if (h->requires_grad) {
    h->EnsureGrad();
    for (size_t i = 0; i < hd; ++i) {
      h->grad[i] += s.d_kh[i] * k[i];
    }
  }
  // k = Sigmoid(a4): d_a4 in place of d_k.
  for (size_t i = 0; i < hd; ++i) {
    const float sv = k[i];
    s.d_k[i] = s.d_k[i] * sv * (1.0f - sv);
  }
  // a4 = Add(a3, bk).
  if (bk->requires_grad) {
    bk->AccumulateGrad(s.d_k);
  }
  // m4 = MatMul(uk, h).
  if (uk->requires_grad) {
    uk->EnsureGrad();
    AccumulateABTranspose(s.d_k, h->value, uk->grad);
  }
  if (h->requires_grad) {
    AccumulateATransposeB(uk->value, s.d_k, h->grad);
  }
  // m3 = MatMul(wk, x).
  if (wk->requires_grad) {
    wk->EnsureGrad();
    AccumulateABTranspose(s.d_k, x->value, wk->grad);
  }
  if (x->requires_grad) {
    x->EnsureGrad();
    AccumulateATransposeB(wk->value, s.d_k, x->grad);
  }
  // m5 = MatMul(wh, x).
  if (wh->requires_grad) {
    wh->EnsureGrad();
    AccumulateABTranspose(s.d_pre, x->value, wh->grad);
  }
  if (x->requires_grad) {
    AccumulateATransposeB(wh->value, s.d_pre, x->grad);
  }
  // omz = Affine(z, -1, 1): z.grad += -1 * d_omz.
  s.d_z.SetShape(hd, 1);
  for (size_t i = 0; i < hd; ++i) {
    s.d_z[i] = -1.0f * s.d_omz[i];
  }
  // p1 = Hadamard(z, h).
  for (size_t i = 0; i < hd; ++i) {
    s.d_z[i] += g[i] * h->value[i];
  }
  if (h->requires_grad) {
    for (size_t i = 0; i < hd; ++i) {
      h->grad[i] += g[i] * z[i];
    }
  }
  // z = Sigmoid(a2): d_a2 in place of d_z.
  for (size_t i = 0; i < hd; ++i) {
    const float sv = z[i];
    s.d_z[i] = s.d_z[i] * sv * (1.0f - sv);
  }
  // a2 = Add(a1, bz).
  if (bz->requires_grad) {
    bz->AccumulateGrad(s.d_z);
  }
  // m2 = MatMul(uz, h).
  if (uz->requires_grad) {
    uz->EnsureGrad();
    AccumulateABTranspose(s.d_z, h->value, uz->grad);
  }
  if (h->requires_grad) {
    AccumulateATransposeB(uz->value, s.d_z, h->grad);
  }
  // m1 = MatMul(wz, x).
  if (wz->requires_grad) {
    wz->EnsureGrad();
    AccumulateABTranspose(s.d_z, x->value, wz->grad);
  }
  if (x->requires_grad) {
    AccumulateATransposeB(wz->value, s.d_z, x->grad);
  }
}

}  // namespace

Tensor FusedGruStep(const Tensor& x, const Tensor& h_prev, const Tensor& wz,
                    const Tensor& uz, const Tensor& bz, const Tensor& wk, const Tensor& uk,
                    const Tensor& bk, const Tensor& wh, const Tensor& uh, const Tensor& bh) {
  const size_t hd = h_prev.rows();
  Tensor out = Tensor::NewOp(hd, 1, "fused_gru", FusedGruBackward, x, h_prev, wz, uz, bz,
                             wk, uk, bk, wh, uh, bh);
  TensorNode* node = out.node();
  node->EnsureSaved(4);
  Matrix& z = node->saved[0];
  Matrix& k = node->saved[1];
  Matrix& hc = node->saved[2];
  Matrix& kh = node->saved[3];
  z.SetShape(hd, 1);
  k.SetShape(hd, 1);
  hc.SetShape(hd, 1);
  kh.SetShape(hd, 1);
  const Matrix& hv = h_prev.value();
  FusedScratch& s = Scratch();
  // z = sigmoid((wz@x + uz@h) + bz) — same association as Add(Add(m1,m2),bz).
  MatMulInto(wz.value(), x.value(), s.ta);
  MatMulInto(uz.value(), hv, s.tb);
  {
    const Matrix& b = bz.value();
    for (size_t i = 0; i < hd; ++i) {
      z[i] = (s.ta[i] + s.tb[i]) + b[i];
    }
    simd::Sigmoid(z.data(), z.data(), hd);
  }
  MatMulInto(wk.value(), x.value(), s.ta);
  MatMulInto(uk.value(), hv, s.tb);
  {
    const Matrix& b = bk.value();
    for (size_t i = 0; i < hd; ++i) {
      k[i] = (s.ta[i] + s.tb[i]) + b[i];
    }
    simd::Sigmoid(k.data(), k.data(), hd);
  }
  for (size_t i = 0; i < hd; ++i) {
    kh[i] = k[i] * hv[i];
  }
  MatMulInto(wh.value(), x.value(), s.ta);
  MatMulInto(uh.value(), kh, s.tb);
  {
    const Matrix& b = bh.value();
    for (size_t i = 0; i < hd; ++i) {
      hc[i] = (s.ta[i] + s.tb[i]) + b[i];
    }
    simd::Tanh(hc.data(), hc.data(), hd);
  }
  Matrix& ov = out.mutable_value();
  for (size_t i = 0; i < hd; ++i) {
    const float omz = -1.0f * z[i] + 1.0f;
    ov[i] = (z[i] * hv[i]) + (omz * hc[i]);
  }
  return out;
}

}  // namespace deeprest

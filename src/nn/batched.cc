#include "src/nn/batched.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/nn/simd/dispatch.h"

namespace deeprest {

void PackedInputBlock(const PackedExpert& p, const Matrix& x, Matrix& xm, Matrix& gates) {
  const size_t rows = x.rows();
  const size_t dim = x.cols();
  const Matrix* masked = &x;
  if (!p.mask.empty()) {
    // x~ = sigmoid(m) . x (Eq. 1), sigmoid(m) precomputed by the pack.
    assert(p.mask.size() == dim);
    xm.SetShape(rows, dim);
    const float* sig = p.mask.data();
    for (size_t b = 0; b < rows; ++b) {
      const float* xrow = x.data() + b * dim;
      float* orow = xm.data() + b * dim;
      for (size_t d = 0; d < dim; ++d) {
        orow[d] = sig[d] * xrow[d];
      }
    }
    masked = &xm;
  }
  // One GEMM for every consumer of xm: the gates (or the feed-forward core)
  // and the bypass columns.
  MatMulInto(*masked, p.w_in, gates);
}

size_t LaneCount(size_t experts) { return (experts + 15) / 16 * 16; }

void ResetLaneCores(size_t experts, size_t lanes, size_t hidden, bool recurrent,
                    LaneCores& cores) {
  assert(lanes >= experts);
  cores.experts = experts;
  cores.lanes = lanes;
  cores.hidden = hidden;
  cores.recurrent = recurrent;
  cores.bias.SetShape(cores.gates(), cores.lanes);
  cores.bias.Zero();
  if (recurrent) {
    cores.u_zk.SetShape(hidden * 2 * hidden, cores.lanes);
    cores.u_zk.Zero();
    cores.u_h.SetShape(hidden * hidden, cores.lanes);
    cores.u_h.Zero();
  } else {
    cores.u_zk = Matrix();
    cores.u_h = Matrix();
  }
}

void PackGruLane(const GruCell& gru, size_t i, LaneCores& cores, Matrix& stacked) {
  StackTransposedInto({&gru.uz().value, &gru.uk().value}, stacked);
  PackLane(stacked, i, cores.u_zk);
  StackTransposedInto({&gru.uh().value}, stacked);
  PackLane(stacked, i, cores.u_h);
  StackRowsInto({&gru.bz().value, &gru.bk().value, &gru.bh().value}, stacked);
  PackLane(stacked, i, cores.bias);
}

void PackLane(const Matrix& block, size_t i, Matrix& lanes) {
  assert(block.size() == lanes.rows() && i < lanes.cols());
  for (size_t f = 0; f < block.size(); ++f) {
    lanes.At(f, i) = block[f];
  }
}

void GatesToLanes(const std::vector<const Matrix*>& gates, size_t g, size_t lanes, Matrix& out) {
  const size_t experts = gates.size();
  const size_t pairs = gates.front()->rows();
  const size_t stride = gates.front()->cols();
  out.SetShape(pairs, g * lanes);
  std::vector<const float*> src(experts);
  for (size_t i = 0; i < experts; ++i) {
    src[i] = gates[i]->data();
  }
  // Expert-innermost: each output row is written in order, and the E source
  // rows it reads stay in L1 across the g rows of a pair.
  for (size_t p = 0; p < pairs; ++p) {
    for (size_t j = 0; j < g; ++j) {
      float* row = out.data() + (p * g + j) * lanes;
      const size_t at = p * stride + j;
      for (size_t i = 0; i < experts; ++i) {
        row[i] = src[i][at];
      }
      std::fill(row + experts, row + lanes, 0.0f);
    }
  }
}

void StateToLanes(const float* expert, size_t stride, const LaneCores& cores, float* lanes) {
  for (size_t i = 0; i < cores.experts; ++i) {
    for (size_t r = 0; r < cores.hidden; ++r) {
      lanes[r * cores.lanes + i] = expert[i * stride + r];
    }
  }
}

void StateFromLanes(const float* lanes, const LaneCores& cores, float* expert, size_t stride) {
  for (size_t i = 0; i < cores.experts; ++i) {
    for (size_t r = 0; r < cores.hidden; ++r) {
      expert[i * stride + r] = lanes[r * cores.lanes + i];
    }
  }
}

void LaneCoreStep(const LaneCores& cores, const float* gates, float* state, LaneStep& s) {
  const size_t lanes = cores.lanes;
  const size_t n = cores.hidden * lanes;  // one H x L block
  const float* bias = cores.bias.data();
  if (!cores.recurrent) {
    // Feed-forward core (use_recurrence ablation): h' = tanh(Wff x + bff).
    simd::Add(gates, bias, state, n);
    simd::Tanh(state, state, n);
    return;
  }
  const size_t hd = cores.hidden;
  s.h.SetShape(hd, lanes);
  std::memcpy(s.h.data(), state, n * sizeof(float));
  // z | k = sigmoid((Wx + [Uz;Uk]·h) + b): the U·h chains start from a
  // zeroed buffer, MatMulInto's +0 (memset writes +0 and is far cheaper
  // here than a fill loop).
  s.zk.SetShape(2 * hd, lanes);
  std::memset(s.zk.data(), 0, 2 * n * sizeof(float));
  simd::LaneAccumulate(s.h.data(), cores.u_zk.data(), s.zk.data(), hd, 2 * hd, lanes);
  simd::Add(gates, s.zk.data(), s.zk.data(), 2 * n);
  simd::Add(s.zk.data(), bias, s.zk.data(), 2 * n);
  simd::Sigmoid(s.zk.data(), s.zk.data(), 2 * n);
  const float* z = s.zk.data();
  const float* k = s.zk.data() + n;
  // h~ = tanh((Wh x + Uh·(k.h)) + bh).
  s.kh.SetShape(hd, lanes);
  simd::Hadamard(k, s.h.data(), s.kh.data(), n);
  s.hc.SetShape(hd, lanes);
  std::memset(s.hc.data(), 0, n * sizeof(float));
  simd::LaneAccumulate(s.kh.data(), cores.u_h.data(), s.hc.data(), hd, hd, lanes);
  simd::Add(gates + 2 * n, s.hc.data(), s.hc.data(), n);
  simd::Add(s.hc.data(), bias + 2 * n, s.hc.data(), n);
  simd::Tanh(s.hc.data(), s.hc.data(), n);
  // h' = (z.h) + ((-1·z + 1).h~), with 1 + (-1·z) == (-1·z) + 1.
  if (s.ones.size() != n) {
    s.ones = Matrix(hd, lanes, 1.0f);
  }
  s.omz.SetShape(hd, lanes);
  simd::Axpby(s.ones.data(), z, -1.0f, s.omz.data(), n);
  simd::Hadamard(s.omz.data(), s.hc.data(), s.omz.data(), n);
  simd::Hadamard(z, s.h.data(), state, n);
  simd::Add(state, s.omz.data(), state, n);
}

void GruTape::Resize(size_t steps, size_t hidden) {
  for (Matrix* m : {&h_prev, &z, &k, &hc, &kh, &d_z, &d_k, &d_pre}) {
    m->SetShape(steps, hidden);
  }
  for (Matrix* m : {&dh, &dh_prev, &d_kh, &row_pre, &row_k, &row_z}) {
    m->SetShape(hidden, 1);
  }
  dh.Zero();
}

void SaveLaneStep(const LaneStep& step, size_t lanes, size_t i, size_t r, GruTape& tape) {
  const size_t hd = tape.z.cols();
  const size_t n = hd * lanes;
  const size_t at = r * hd;
  for (size_t c = 0; c < hd; ++c) {
    const size_t lane = c * lanes + i;
    tape.h_prev[at + c] = step.h[lane];
    tape.z[at + c] = step.zk[lane];
    tape.k[at + c] = step.zk[n + lane];
    tape.hc[at + c] = step.hc[lane];
    tape.kh[at + c] = step.kh[lane];
  }
}

void GruStepBackward(const GruCell& gru, size_t r, bool chain, GruTape& tape) {
  const size_t hd = tape.z.cols();
  const size_t at = r * hd;
  const float* dh = tape.dh.data();
  const float* z = tape.z.data() + at;
  const float* k = tape.k.data() + at;
  const float* hc = tape.hc.data() + at;
  const float* h_prev = tape.h_prev.data() + at;
  Matrix& d_pre = tape.row_pre;
  Matrix& d_k = tape.row_k;
  Matrix& d_z = tape.row_z;
  Matrix& dh_prev = tape.dh_prev;
  // h' = z.h + (1 - z).h~, h~ = tanh(pre): d_pre = (dh . (1 - z)) . (1 - h~^2).
  for (size_t c = 0; c < hd; ++c) {
    const float omz = -1.0f * z[c] + 1.0f;
    d_pre[c] = (dh[c] * omz) * (1.0f - hc[c] * hc[c]);
  }
  // pre = Wh x + Uh (k.h) + bh: d_kh = Uh^T d_pre.
  tape.d_kh.Zero();
  AccumulateATransposeB(gru.uh().value, d_pre, tape.d_kh);
  const float* d_kh = tape.d_kh.data();
  dh_prev.Zero();
  // k = sigmoid(...): d_k = (d_kh . h) . k . (1 - k).
  for (size_t c = 0; c < hd; ++c) {
    d_k[c] = d_kh[c] * h_prev[c];
    if (chain) {
      dh_prev[c] += d_kh[c] * k[c];
    }
    d_k[c] = d_k[c] * k[c] * (1.0f - k[c]);
  }
  if (chain) {
    AccumulateATransposeB(gru.uk().value, d_k, dh_prev);
  }
  // z = sigmoid(...): d_z = (-(dh . h~) + dh . h) . z . (1 - z).
  for (size_t c = 0; c < hd; ++c) {
    d_z[c] = -1.0f * (dh[c] * hc[c]);
    d_z[c] += dh[c] * h_prev[c];
    if (chain) {
      dh_prev[c] += dh[c] * z[c];
    }
    d_z[c] = d_z[c] * z[c] * (1.0f - z[c]);
  }
  if (chain) {
    AccumulateATransposeB(gru.uz().value, d_z, dh_prev);
  }
  std::memcpy(tape.d_pre.data() + at, d_pre.data(), hd * sizeof(float));
  std::memcpy(tape.d_k.data() + at, d_k.data(), hd * sizeof(float));
  std::memcpy(tape.d_z.data() + at, d_z.data(), hd * sizeof(float));
  std::swap(tape.dh, tape.dh_prev);
}

void AccumulateGruGradients(const GruTape& tape, const Matrix& x, const GruCell& gru) {
  AccumulateATransposeB(tape.d_z, x, gru.wz().grad);
  AccumulateATransposeB(tape.d_k, x, gru.wk().grad);
  AccumulateATransposeB(tape.d_pre, x, gru.wh().grad);
  AccumulateATransposeB(tape.d_z, tape.h_prev, gru.uz().grad);
  AccumulateATransposeB(tape.d_k, tape.h_prev, gru.uk().grad);
  AccumulateATransposeB(tape.d_pre, tape.kh, gru.uh().grad);
  AccumulateRows(tape.d_z, gru.bz().grad);
  AccumulateRows(tape.d_k, gru.bk().grad);
  AccumulateRows(tape.d_pre, gru.bh().grad);
}

void AccumulateRows(const Matrix& rows, Matrix& grad) {
  assert(grad.size() == rows.cols());
  for (size_t r = 0; r < rows.rows(); ++r) {
    const float* row = rows.data() + r * rows.cols();
    for (size_t c = 0; c < rows.cols(); ++c) {
      grad[c] += row[c];
    }
  }
}

void PackedBypass(const PackedExpert& p, const float* gates, size_t batch, float* bypass) {
  // The head adds (skip x~ + sb) as one term, so that sum is formed here.
  const size_t g = p.w_in.cols();
  const size_t outs = p.skip_b.size();
  const float* sb = p.skip_b.data();
  for (size_t b = 0; b < batch; ++b) {
    const float* grow = gates + b * g + (g - outs);
    for (size_t j = 0; j < outs; ++j) {
      bypass[b * outs + j] = grow[j] + sb[j];
    }
  }
}

void PackedExpertHead(const PackedExpert& p, const float* attended, const float* state,
                      const float* bypass, size_t batch, PackedScratch& s) {
  const size_t hd = p.hidden;
  s.concat.SetShape(batch, 2 * hd);
  for (size_t b = 0; b < batch; ++b) {
    float* row = s.concat.data() + b * 2 * hd;
    if (attended != nullptr) {
      std::memcpy(row, attended + b * hd, hd * sizeof(float));
    } else {
      std::fill(row, row + hd, 0.0f);
    }
    std::memcpy(row + hd, state + b * hd, hd * sizeof(float));
  }
  MatMulInto(s.concat, p.head, s.y);
  const size_t outs = p.head_b.size();
  const bool has_bypass = !p.skip_b.empty();
  assert(!has_bypass || p.skip_b.size() == outs);
  const float* hb = p.head_b.data();
  for (size_t b = 0; b < batch; ++b) {
    float* yrow = s.y.data() + b * outs;
    for (size_t j = 0; j < outs; ++j) {
      // (head + hb) + (skip + sb), the oracle's bracketing.
      yrow[j] = has_bypass ? (yrow[j] + hb[j]) + bypass[b * outs + j] : yrow[j] + hb[j];
    }
  }
}

void StackRowsInto(const std::vector<const Matrix*>& blocks, Matrix& out) {
  size_t rows = 0;
  for (const Matrix* block : blocks) {
    rows += block->rows();
  }
  out.SetShape(rows, blocks.front()->cols());
  float* dst = out.data();
  for (const Matrix* block : blocks) {
    dst = std::copy(block->data(), block->data() + block->size(), dst);
  }
}

void StackTransposedInto(const std::vector<const Matrix*>& blocks, Matrix& out) {
  size_t rows = 0;
  for (const Matrix* block : blocks) {
    rows += block->rows();
  }
  const size_t cols = blocks.front()->cols();
  out.SetShape(cols, rows);
  size_t offset = 0;
  for (const Matrix* block : blocks) {
    for (size_t r = 0; r < block->rows(); ++r) {
      for (size_t c = 0; c < cols; ++c) {
        out.At(c, offset + r) = block->At(r, c);
      }
    }
    offset += block->rows();
  }
}

}  // namespace deeprest

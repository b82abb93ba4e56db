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

// Each transpose walks its destination in order: a strided source stays
// in the cache, where a stream of stores to scattered cold lines would not.
void ExpertsToLanes(const float* expert, size_t stride, size_t rows, const LaneCores& cores,
                    float* lanes) {
  for (size_t q = 0; q < rows; ++q) {
    float* dst = lanes + q * cores.lanes;
    for (size_t i = 0; i < cores.experts; ++i) {
      dst[i] = expert[i * stride + q];
    }
  }
}

void LanesToExperts(const float* lanes, size_t rows, const LaneCores& cores, float* expert,
                    size_t stride) {
  for (size_t i = 0; i < cores.experts; ++i) {
    float* dst = expert + i * stride;
    for (size_t q = 0; q < rows; ++q) {
      dst[q] = lanes[q * cores.lanes + i];
    }
  }
}

void LanesToExperts(const float* lanes, size_t rows, const LaneCores& cores,
                    const std::vector<float*>& experts) {
  assert(experts.size() == cores.experts);
  for (size_t i = 0; i < cores.experts; ++i) {
    float* dst = experts[i];
    for (size_t q = 0; q < rows; ++q) {
      dst[q] = lanes[q * cores.lanes + i];
    }
  }
}

void LaneTape::Resize(size_t steps, const LaneCores& cores) {
  const size_t n = cores.hidden * cores.lanes;  // one H x L block
  hc.SetShape(steps, n);
  if (ones.size() != n) {
    ones = Matrix(cores.hidden, cores.lanes, 1.0f);
  }
  if (!cores.recurrent) {
    return;
  }
  h.SetShape(steps, n);
  zk.SetShape(steps, 2 * n);
  kh.SetShape(steps, n);
  omz.SetShape(cores.hidden, cores.lanes);
}

void LaneCoreStep(const LaneCores& cores, const float* gates, float* state, LaneTape& tape,
                  size_t r) {
  const size_t lanes = cores.lanes;
  const size_t n = cores.hidden * lanes;  // one H x L block
  const float* bias = cores.bias.data();
  float* hc = tape.hc.data() + r * n;
  if (!cores.recurrent) {
    // Feed-forward core (use_recurrence ablation): h' = tanh(Wff x + bff).
    simd::Add(gates, bias, hc, n);
    simd::Tanh(hc, hc, n);
    std::memcpy(state, hc, n * sizeof(float));
    return;
  }
  const size_t hd = cores.hidden;
  float* h = tape.h.data() + r * n;
  float* zk = tape.zk.data() + r * 2 * n;
  float* kh = tape.kh.data() + r * n;
  std::memcpy(h, state, n * sizeof(float));
  // z | k = sigmoid((Wx + [Uz;Uk]·h) + b): the U·h chains start from a
  // zeroed buffer, MatMulInto's +0 (memset writes +0 and is far cheaper
  // here than a fill loop).
  std::memset(zk, 0, 2 * n * sizeof(float));
  simd::LaneAccumulate(h, cores.u_zk.data(), zk, hd, 2 * hd, lanes);
  simd::Add(gates, zk, zk, 2 * n);
  simd::Add(zk, bias, zk, 2 * n);
  simd::Sigmoid(zk, zk, 2 * n);
  const float* z = zk;
  const float* k = zk + n;
  // h~ = tanh((Wh x + Uh·(k.h)) + bh).
  simd::Hadamard(k, h, kh, n);
  std::memset(hc, 0, n * sizeof(float));
  simd::LaneAccumulate(kh, cores.u_h.data(), hc, hd, hd, lanes);
  simd::Add(gates + 2 * n, hc, hc, n);
  simd::Add(hc, bias + 2 * n, hc, n);
  simd::Tanh(hc, hc, n);
  // h' = (z.h) + ((-1·z + 1).h~), with 1 + (-1·z) == (-1·z) + 1.
  float* omz = tape.omz.data();
  simd::Axpby(tape.ones.data(), z, -1.0f, omz, n);
  simd::Hadamard(omz, hc, omz, n);
  simd::Hadamard(z, h, state, n);
  simd::Add(state, omz, state, n);
}

void LaneBackward::Resize(size_t steps, const LaneCores& cores) {
  const size_t hd = cores.hidden;
  const size_t n = hd * cores.lanes;
  d_pre.SetShape(steps, n);
  dh.SetShape(hd, cores.lanes);
  dh.Zero();
  tmp.SetShape(hd, cores.lanes);
  if (!cores.recurrent) {
    return;
  }
  for (Matrix* u : {&u_z, &u_k, &u_h}) {
    u->SetShape(hd * hd, cores.lanes);
    u->Zero();
  }
  d_k.SetShape(steps, n);
  d_z.SetShape(steps, n);
  for (Matrix* m : {&dh_prev, &d_kh, &omz}) {
    m->SetShape(hd, cores.lanes);
  }
  if (minus_ones.size() != n) {
    minus_ones = Matrix(hd, cores.lanes, -1.0f);
  }
}

void PackGruBackwardLane(const GruCell& gru, size_t i, LaneBackward& back) {
  PackLane(gru.uz().value, i, back.u_z);
  PackLane(gru.uk().value, i, back.u_k);
  PackLane(gru.uh().value, i, back.u_h);
}

void LaneCoreStepBackward(const LaneCores& cores, const LaneTape& tape, size_t r, bool chain,
                          LaneBackward& back) {
  const size_t hd = cores.hidden;
  const size_t lanes = cores.lanes;
  const size_t n = hd * lanes;  // one H x L block
  const float* ones = tape.ones.data();
  const float* hc = tape.hc.data() + r * n;
  float* dh = back.dh.data();
  float* d_pre = back.d_pre.data() + r * n;
  float* t = back.tmp.data();
  // h~ = tanh(pre), the feed-forward core's output too: 1 - h~^2, as
  // 1 + (-1·h~^2).
  simd::Hadamard(hc, hc, t, n);
  simd::Axpby(ones, t, -1.0f, t, n);
  if (!cores.recurrent) {
    // h = tanh(Wff x~ + bff): d_pre = dh . (1 - h^2), and no dh to carry.
    simd::Hadamard(dh, t, d_pre, n);
    std::memset(dh, 0, n * sizeof(float));
    return;
  }
  const float* h = tape.h.data() + r * n;
  const float* z = tape.zk.data() + r * 2 * n;
  const float* k = z + n;
  float* d_k = back.d_k.data() + r * n;
  float* d_z = back.d_z.data() + r * n;
  float* d_kh = back.d_kh.data();
  float* dh_prev = back.dh_prev.data();
  // h' = z.h + (1 - z).h~: d_pre = (dh . (1 - z)) . (1 - h~^2), with
  // 1 - z == -1·z + 1.
  float* omz = back.omz.data();
  simd::Axpby(ones, z, -1.0f, omz, n);
  simd::Hadamard(dh, omz, d_pre, n);
  simd::Hadamard(d_pre, t, d_pre, n);
  // pre = Wh x + Uh (k.h) + bh: d_kh = Uh^T d_pre, from +0.
  std::memset(d_kh, 0, n * sizeof(float));
  simd::LaneAccumulate(d_pre, back.u_h.data(), d_kh, hd, hd, lanes);
  // k = sigmoid(...): d_k = ((d_kh . h) . k) . (1 - k).
  simd::Hadamard(d_kh, h, d_k, n);
  simd::Hadamard(d_k, k, d_k, n);
  simd::Axpby(ones, k, -1.0f, t, n);
  simd::Hadamard(d_k, t, d_k, n);
  // z = sigmoid(...): d_z = ((-1·(dh . h~) + dh . h) . z) . (1 - z).
  simd::Hadamard(dh, hc, d_z, n);
  simd::Hadamard(d_z, back.minus_ones.data(), d_z, n);
  simd::Hadamard(dh, h, t, n);
  simd::Add(d_z, t, d_z, n);
  simd::Hadamard(d_z, z, d_z, n);
  simd::Hadamard(d_z, omz, d_z, n);
  if (!chain) {
    std::memset(dh, 0, n * sizeof(float));
    return;
  }
  // dh_prev = ((+0 + d_kh.k) + Uk^T d_k) + dh.z) + Uz^T d_z: the +0 seed
  // makes a -0 first product +0, as the zeroed buffer of the graph does.
  simd::Hadamard(d_kh, k, t, n);
  std::memset(dh_prev, 0, n * sizeof(float));
  simd::Add(dh_prev, t, dh_prev, n);
  simd::LaneAccumulate(d_k, back.u_k.data(), dh_prev, hd, hd, lanes);
  simd::Hadamard(dh, z, t, n);
  simd::Add(dh_prev, t, dh_prev, n);
  simd::LaneAccumulate(d_z, back.u_z.data(), dh_prev, hd, hd, lanes);
  std::swap(back.dh, back.dh_prev);
}

void AccumulateGruGradients(const GruPass& pass, const Matrix& x, const GruCell& gru) {
  AccumulateATransposeB(pass.d_z, x, gru.wz().grad);
  AccumulateATransposeB(pass.d_k, x, gru.wk().grad);
  AccumulateATransposeB(pass.d_pre, x, gru.wh().grad);
  AccumulateATransposeB(pass.d_z, pass.h_prev, gru.uz().grad);
  AccumulateATransposeB(pass.d_k, pass.h_prev, gru.uk().grad);
  AccumulateATransposeB(pass.d_pre, pass.kh, gru.uh().grad);
  AccumulateRows(pass.d_z, gru.bz().grad);
  AccumulateRows(pass.d_k, gru.bk().grad);
  AccumulateRows(pass.d_pre, gru.bh().grad);
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

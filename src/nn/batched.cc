#include "src/nn/batched.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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

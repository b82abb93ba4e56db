#include "src/nn/batched.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

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

void PackedCoreStep(const PackedExpert& p, const float* gates, float* state, size_t batch,
                    PackedScratch& s) {
  const size_t hd = p.hidden;
  const size_t g = p.w_in.cols();
  const float* bias = p.bias.data();
  if (!p.recurrent) {
    // Feed-forward core (use_recurrence ablation): h' = tanh(Wff x + bff).
    for (size_t b = 0; b < batch; ++b) {
      const float* grow = gates + b * g;
      float* out = state + b * hd;
      for (size_t r = 0; r < hd; ++r) {
        out[r] = std::tanh(grow[r] + bias[r]);
      }
    }
    return;
  }
  // Same association as the oracle's GRU step: z = sigmoid((Wz x + Uz h) +
  // bz), k = sigmoid((Wk x + Uk h) + bk), h~ = tanh((Wh x + Uh (k.h)) + bh),
  // h' = (z.h) + ((-1*z + 1) . h~).
  s.h.SetShape(batch, hd);
  std::memcpy(s.h.data(), state, batch * hd * sizeof(float));
  MatMulInto(s.h, p.u_zk, s.rec);
  s.z.SetShape(batch, hd);
  s.k.SetShape(batch, hd);
  s.kh.SetShape(batch, hd);
  for (size_t b = 0; b < batch; ++b) {
    const float* grow = gates + b * g;
    const float* rrow = s.rec.data() + b * 2 * hd;
    const float* hrow = s.h.data() + b * hd;
    float* zrow = s.z.data() + b * hd;
    float* krow = s.k.data() + b * hd;
    float* khrow = s.kh.data() + b * hd;
    for (size_t r = 0; r < hd; ++r) {
      zrow[r] = 1.0f / (1.0f + std::exp(-((grow[r] + rrow[r]) + bias[r])));
      krow[r] = 1.0f / (1.0f + std::exp(-((grow[hd + r] + rrow[hd + r]) + bias[hd + r])));
      khrow[r] = krow[r] * hrow[r];
    }
  }
  MatMulInto(s.kh, p.u_h, s.cand);
  s.hc.SetShape(batch, hd);
  for (size_t b = 0; b < batch; ++b) {
    const float* grow = gates + b * g + 2 * hd;
    const float* crow = s.cand.data() + b * hd;
    const float* hrow = s.h.data() + b * hd;
    const float* zrow = s.z.data() + b * hd;
    float* hcrow = s.hc.data() + b * hd;
    float* out = state + b * hd;
    for (size_t r = 0; r < hd; ++r) {
      hcrow[r] = std::tanh((grow[r] + crow[r]) + bias[2 * hd + r]);
      const float omz = -1.0f * zrow[r] + 1.0f;
      out[r] = (zrow[r] * hrow[r]) + (omz * hcrow[r]);
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

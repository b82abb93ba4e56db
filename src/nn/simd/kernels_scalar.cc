// Portable fallback kernels — the kScalar rung of the dispatch ladder.
//
// Plain C++ over raw pointers: blocking only over independent output
// elements, every element's reduction in ascending order, one rounding per
// multiply and add. Sigmoid and Tanh loop over the scalar bodies
// (nonlinear.h). Every other rung reproduces these kernels bit for bit,
// except the GEMV, which the vector rungs reduce across lanes: this rung's
// GEMV is the only copy of the exact one, and KernelMode::kTiled runs it
// whatever rung is active (dispatch.h ScalarGemv). The whole table is the
// exact path of every host without AVX2 (and of DEEPREST_SIMD=scalar, which
// the ci.sh simd-off leg pins so the fallback path cannot rot).
#include "src/nn/simd/kernels.h"

namespace deeprest {
namespace simd {
namespace detail {
namespace {

// out[0, W) = arow (1 x k) * btile (k x W, row stride m): W independent
// ascending-k chains, one per output column.
template <size_t W>
inline void RowTile(const float* arow, const float* btile, float* out, size_t k, size_t m) {
  float acc[W] = {};
  for (size_t c = 0; c < k; ++c) {
    const float av = arow[c];
    const float* brow = btile + c * m;
    for (size_t j = 0; j < W; ++j) {
      acc[j] += av * brow[j];
    }
  }
  for (size_t j = 0; j < W; ++j) {
    out[j] = acc[j];
  }
}

void MatMulScalar(const float* A, const float* B, float* O, size_t n, size_t k, size_t m) {
  if (m == 1) {
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float* a0 = A + (i + 0) * k;
      const float* a1 = A + (i + 1) * k;
      const float* a2 = A + (i + 2) * k;
      const float* a3 = A + (i + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (size_t c = 0; c < k; ++c) {
        const float bv = B[c];
        acc0 += a0[c] * bv;
        acc1 += a1[c] * bv;
        acc2 += a2[c] * bv;
        acc3 += a3[c] * bv;
      }
      O[i + 0] = acc0;
      O[i + 1] = acc1;
      O[i + 2] = acc2;
      O[i + 3] = acc3;
    }
    for (; i < n; ++i) {
      const float* arow = A + i * k;
      float acc = 0.0f;
      for (size_t c = 0; c < k; ++c) {
        acc += arow[c] * B[c];
      }
      O[i] = acc;
    }
    return;
  }
  // Mat-mat: 8-column tiles, then the m % 8 remainder as 4/2/1-wide tiles.
  // Every tile has a compile-time width small enough for its accumulators to
  // stay in registers for the whole k loop (a 16-wide tile spills on
  // baseline x86-64); each output element still reduces its k terms in
  // ascending order from 0, whichever tile it lands in.
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    size_t j0 = 0;
    for (; j0 + 8 <= m; j0 += 8) {
      RowTile<8>(arow, B + j0, orow + j0, k, m);
    }
    const size_t rem = m - j0;
    if (rem & 4) {
      RowTile<4>(arow, B + j0, orow + j0, k, m);
      j0 += 4;
    }
    if (rem & 2) {
      RowTile<2>(arow, B + j0, orow + j0, k, m);
      j0 += 2;
    }
    if (rem & 1) {
      RowTile<1>(arow, B + j0, orow + j0, k, m);
    }
  }
}

void AccATBScalar(const float* A, const float* B, float* O, size_t n, size_t p, size_t q) {
  if (q == 1) {
    size_t r = 0;
    for (; r + 4 <= p; r += 4) {
      float acc0 = O[r + 0], acc1 = O[r + 1], acc2 = O[r + 2], acc3 = O[r + 3];
      for (size_t i = 0; i < n; ++i) {
        const float bv = B[i];
        const float* arow = A + i * p + r;
        acc0 += arow[0] * bv;
        acc1 += arow[1] * bv;
        acc2 += arow[2] * bv;
        acc3 += arow[3] * bv;
      }
      O[r + 0] = acc0;
      O[r + 1] = acc1;
      O[r + 2] = acc2;
      O[r + 3] = acc3;
    }
    for (; r < p; ++r) {
      float acc = O[r];
      for (size_t i = 0; i < n; ++i) {
        acc += A[i * p + r] * B[i];
      }
      O[r] = acc;
    }
    return;
  }
  size_t r = 0;
  for (; r + 4 <= p; r += 4) {
    float* o0 = O + (r + 0) * q;
    float* o1 = O + (r + 1) * q;
    float* o2 = O + (r + 2) * q;
    float* o3 = O + (r + 3) * q;
    for (size_t i = 0; i < n; ++i) {
      const float* arow = A + i * p + r;
      const float f0 = arow[0];
      const float f1 = arow[1];
      const float f2 = arow[2];
      const float f3 = arow[3];
      const float* brow = B + i * q;
      for (size_t c = 0; c < q; ++c) {
        const float bv = brow[c];
        o0[c] += f0 * bv;
        o1[c] += f1 * bv;
        o2[c] += f2 * bv;
        o3[c] += f3 * bv;
      }
    }
  }
  for (; r < p; ++r) {
    float* orow = O + r * q;
    for (size_t i = 0; i < n; ++i) {
      const float ar = A[i * p + r];
      const float* brow = B + i * q;
      for (size_t c = 0; c < q; ++c) {
        orow[c] += ar * brow[c];
      }
    }
  }
}

void AccABTScalar(const float* A, const float* B, float* O, size_t n, size_t k, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const float* b0 = B + (j + 0) * k;
      const float* b1 = B + (j + 1) * k;
      const float* b2 = B + (j + 2) * k;
      const float* b3 = B + (j + 3) * k;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (size_t c = 0; c < k; ++c) {
        const double av = arow[c];
        acc0 += av * b0[c];
        acc1 += av * b1[c];
        acc2 += av * b2[c];
        acc3 += av * b3[c];
      }
      orow[j + 0] += static_cast<float>(acc0);
      orow[j + 1] += static_cast<float>(acc1);
      orow[j + 2] += static_cast<float>(acc2);
      orow[j + 3] += static_cast<float>(acc3);
    }
    for (; j < m; ++j) {
      const float* brow = B + j * k;
      double acc = 0.0;
      for (size_t c = 0; c < k; ++c) {
        acc += static_cast<double>(arow[c]) * brow[c];
      }
      orow[j] += static_cast<float>(acc);
    }
  }
}

void AddScalar(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void AxpbyScalar(const float* a, const float* b, float scale, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] + scale * b[i];
  }
}

void HadamardScalar(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

void AdamStepScalar(const float* g, float* m, float* v, float* value, size_t n,
                    const AdamStepParams& params) {
  for (size_t i = 0; i < n; ++i) {
    AdamElement(g[i], m[i], v[i], value[i], params);
  }
}

void LaneAccumulateScalar(const float* a, const float* w, float* out, size_t k, size_t m,
                          size_t lanes) {
  LaneAccumulateLoop(a, w, out, k, m, lanes, 0);
}

const KernelTable kScalarTable = {
    MatMulScalar,   AccATBScalar, AccABTScalar, AddScalar,           AxpbyScalar,
    HadamardScalar, AdamStepScalar, SigmoidLoop, TanhLoop, LaneAccumulateScalar,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

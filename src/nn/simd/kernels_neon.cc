// NEON/ASIMD kernels for aarch64. Same numerics contract as the x86 TUs:
// mat-mat / AccumulateATransposeB / element-wise paths use separate
// vmulq+vaddq (bit-identical to plain loops); the GEMV path uses
// fused-multiply lane reductions (ULP-bounded). AccumulateABTranspose,
// AdamStep and LaneAccumulate are the scalar rung's plain per-element loops,
// so they are exact too. Sigmoid and Tanh loop over the scalar bodies
// (nonlinear.h): std::fma is the fused instruction on aarch64, so the bodies
// are cheap here; a vector version waits for ARM hardware to test it on.
// On non-ARM builds this TU contributes only a null table.
#include "src/nn/simd/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace deeprest {
namespace simd {
namespace detail {
namespace {

void MatMulNeon(const float* A, const float* B, float* O, size_t n, size_t k, size_t m) {
  if (m == 1) {
    for (size_t i = 0; i < n; ++i) {
      const float* arow = A + i * k;
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      size_t c = 0;
      for (; c + 8 <= k; c += 8) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(arow + c), vld1q_f32(B + c));
        acc1 = vfmaq_f32(acc1, vld1q_f32(arow + c + 4), vld1q_f32(B + c + 4));
      }
      for (; c + 4 <= k; c += 4) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(arow + c), vld1q_f32(B + c));
      }
      float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
      for (; c < k; ++c) {
        acc += arow[c] * B[c];
      }
      O[i] = acc;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const float32x4_t av = vdupq_n_f32(arow[c]);
        const float* brow = btile + c * m;
        acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(brow)));
        acc1 = vaddq_f32(acc1, vmulq_f32(av, vld1q_f32(brow + 4)));
        acc2 = vaddq_f32(acc2, vmulq_f32(av, vld1q_f32(brow + 8)));
        acc3 = vaddq_f32(acc3, vmulq_f32(av, vld1q_f32(brow + 12)));
      }
      vst1q_f32(orow + j, acc0);
      vst1q_f32(orow + j + 4, acc1);
      vst1q_f32(orow + j + 8, acc2);
      vst1q_f32(orow + j + 12, acc3);
    }
    for (; j + 4 <= m; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(arow[c]), vld1q_f32(btile + c * m)));
      }
      vst1q_f32(orow + j, acc);
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (size_t c = 0; c < k; ++c) {
        acc += arow[c] * B[c * m + j];
      }
      orow[j] = acc;
    }
  }
}

void AccATBNeon(const float* A, const float* B, float* O, size_t n, size_t p, size_t q) {
  if (q == 1) {
    size_t r = 0;
    for (; r + 4 <= p; r += 4) {
      float32x4_t acc = vld1q_f32(O + r);
      for (size_t i = 0; i < n; ++i) {
        acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(A + i * p + r), vdupq_n_f32(B[i])));
      }
      vst1q_f32(O + r, acc);
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
  for (size_t r = 0; r < p; ++r) {
    float* orow = O + r * q;
    size_t c = 0;
    for (; c + 4 <= q; c += 4) {
      float32x4_t acc = vld1q_f32(orow + c);
      for (size_t i = 0; i < n; ++i) {
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(A[i * p + r]), vld1q_f32(B + i * q + c)));
      }
      vst1q_f32(orow + c, acc);
    }
    for (; c < q; ++c) {
      float acc = orow[c];
      for (size_t i = 0; i < n; ++i) {
        acc += A[i * p + r] * B[i * q + c];
      }
      orow[c] = acc;
    }
  }
}

void AccABTNeon(const float* A, const float* B, float* O, size_t n, size_t k, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = B + j * k;
      double acc = 0.0;
      for (size_t c = 0; c < k; ++c) {
        acc += static_cast<double>(arow[c]) * brow[c];
      }
      orow[j] += static_cast<float>(acc);
    }
  }
}

void AddNeon(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void AxpbyNeon(const float* a, const float* b, float scale, float* out, size_t n) {
  const float32x4_t sv = vdupq_n_f32(scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t prod = vmulq_f32(sv, vld1q_f32(b + i));
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), prod));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + scale * b[i];
  }
}

void HadamardNeon(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

void AdamStepNeon(const float* g, float* m, float* v, float* value, size_t n,
                  const AdamStepParams& params) {
  for (size_t i = 0; i < n; ++i) {
    AdamElement(g[i], m[i], v[i], value[i], params);
  }
}

void LaneAccumulateNeon(const float* a, const float* w, float* out, size_t k, size_t m,
                        size_t lanes) {
  LaneAccumulateLoop(a, w, out, k, m, lanes, 0);
}

const KernelTable kNeonTable = {
    MatMulNeon,   AccATBNeon,  AccABTNeon, AddNeon,           AxpbyNeon,
    HadamardNeon, AdamStepNeon, SigmoidLoop, TanhLoop, LaneAccumulateNeon,
};

}  // namespace

const KernelTable* NeonTable() { return &kNeonTable; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#else  // non-ARM

namespace deeprest {
namespace simd {
namespace detail {

const KernelTable* NeonTable() { return nullptr; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#endif

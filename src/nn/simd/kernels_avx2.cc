// AVX2 + FMA kernels. Compiled unconditionally on x86 via per-function
// target attributes (no -mavx2 flag), so the binary stays runnable on
// pre-AVX2 hosts — the dispatch layer only routes here after a CPUID probe.
//
// Numerics per the dispatch.h contract:
//   * mat-mat MatMul, AccumulateATransposeB, the k == 1 (rank-1)
//     AccumulateABTranspose and all element-wise kernels use separate
//     _mm256_mul_ps / _mm256_add_ps (never FMA): each lane is one
//     independent output element with its k-reduction in ascending order,
//     so results are bit-identical to plain ascending-k loops.
//   * the m == 1 GEMV path and AccumulateABTranspose's k > 1 dot products
//     use lane-parallel FMA reductions (ULP-bounded, not bit-exact).
#include "src/nn/simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define DEEPREST_AVX2_TARGET __attribute__((target("avx2,fma")))

namespace deeprest {
namespace simd {
namespace detail {
namespace {

DEEPREST_AVX2_TARGET inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

DEEPREST_AVX2_TARGET inline double HSum256d(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

DEEPREST_AVX2_TARGET void MatMulAvx2(const float* A, const float* B, float* O, size_t n,
                                     size_t k, size_t m) {
  if (m == 1) {
    // GEMV: lane-parallel FMA reduction per output row (ULP-bounded).
    for (size_t i = 0; i < n; ++i) {
      const float* arow = A + i * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      size_t c = 0;
      for (; c + 32 <= k; c += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + c), _mm256_loadu_ps(B + c), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + c + 8), _mm256_loadu_ps(B + c + 8), acc1);
        acc2 =
            _mm256_fmadd_ps(_mm256_loadu_ps(arow + c + 16), _mm256_loadu_ps(B + c + 16), acc2);
        acc3 =
            _mm256_fmadd_ps(_mm256_loadu_ps(arow + c + 24), _mm256_loadu_ps(B + c + 24), acc3);
      }
      for (; c + 8 <= k; c += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + c), _mm256_loadu_ps(B + c), acc0);
      }
      acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
      float acc = HSum256(acc0);
      for (; c < k; ++c) {
        acc += arow[c] * B[c];
      }
      O[i] = acc;
    }
    return;
  }
  // Mat-mat: lanes are independent output columns; mul+add keeps each
  // element's ascending-k reduction bit-identical to a plain loop.
  // Rows are blocked in fours purely for instruction-level parallelism:
  // four independent accumulator chains hide the add latency and share
  // every B-row load. Each output element still reduces in ascending k
  // with a separate multiply and add, so the blocking changes no rounding.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* a0 = A + (i + 0) * k;
    const float* a1 = A + (i + 1) * k;
    const float* a2 = A + (i + 2) * k;
    const float* a3 = A + (i + 3) * k;
    float* o0 = O + (i + 0) * m;
    float* o1 = O + (i + 1) * m;
    float* o2 = O + (i + 2) * m;
    float* o3 = O + (i + 3) * m;
    size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      __m256 acc00 = _mm256_setzero_ps();
      __m256 acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps();
      __m256 acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps();
      __m256 acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps();
      __m256 acc31 = _mm256_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const float* brow = btile + c * m;
        const __m256 bv0 = _mm256_loadu_ps(brow);
        const __m256 bv1 = _mm256_loadu_ps(brow + 8);
        const __m256 av0 = _mm256_set1_ps(a0[c]);
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av0, bv0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av0, bv1));
        const __m256 av1 = _mm256_set1_ps(a1[c]);
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av1, bv0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av1, bv1));
        const __m256 av2 = _mm256_set1_ps(a2[c]);
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av2, bv0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av2, bv1));
        const __m256 av3 = _mm256_set1_ps(a3[c]);
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av3, bv0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av3, bv1));
      }
      _mm256_storeu_ps(o0 + j, acc00);
      _mm256_storeu_ps(o0 + j + 8, acc01);
      _mm256_storeu_ps(o1 + j, acc10);
      _mm256_storeu_ps(o1 + j + 8, acc11);
      _mm256_storeu_ps(o2 + j, acc20);
      _mm256_storeu_ps(o2 + j + 8, acc21);
      _mm256_storeu_ps(o3 + j, acc30);
      _mm256_storeu_ps(o3 + j + 8, acc31);
    }
    for (; j + 8 <= m; j += 8) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m256 bv = _mm256_loadu_ps(btile + c * m);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[c]), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[c]), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[c]), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[c]), bv));
      }
      _mm256_storeu_ps(o0 + j, acc0);
      _mm256_storeu_ps(o1 + j, acc1);
      _mm256_storeu_ps(o2 + j, acc2);
      _mm256_storeu_ps(o3 + j, acc3);
    }
    for (; j < m; ++j) {
      float s0 = 0.0f;
      float s1 = 0.0f;
      float s2 = 0.0f;
      float s3 = 0.0f;
      for (size_t c = 0; c < k; ++c) {
        const float bv = B[c * m + j];
        s0 += a0[c] * bv;
        s1 += a1[c] * bv;
        s2 += a2[c] * bv;
        s3 += a3[c] * bv;
      }
      o0[j] = s0;
      o1[j] = s1;
      o2[j] = s2;
      o3[j] = s3;
    }
  }
  for (; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    size_t j = 0;
    for (; j + 32 <= m; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m256 av = _mm256_set1_ps(arow[c]);
        const float* brow = btile + c * m;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
      _mm256_storeu_ps(orow + j + 16, acc2);
      _mm256_storeu_ps(orow + j + 24, acc3);
    }
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(arow[c]), _mm256_loadu_ps(btile + c * m)));
      }
      _mm256_storeu_ps(orow + j, acc);
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

DEEPREST_AVX2_TARGET void AccATBAvx2(const float* A, const float* B, float* O, size_t n,
                                     size_t p, size_t q) {
  if (q == 1) {
    // Lanes are 8 consecutive output rows r; A + i*p + r loads contiguously.
    size_t r = 0;
    for (; r + 8 <= p; r += 8) {
      __m256 acc = _mm256_loadu_ps(O + r);
      for (size_t i = 0; i < n; ++i) {
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_loadu_ps(A + i * p + r), _mm256_set1_ps(B[i])));
      }
      _mm256_storeu_ps(O + r, acc);
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
  // Lanes are output columns of row r; broadcast A[i][r], stream B rows.
  for (size_t r = 0; r < p; ++r) {
    float* orow = O + r * q;
    size_t c = 0;
    for (; c + 16 <= q; c += 16) {
      __m256 acc0 = _mm256_loadu_ps(orow + c);
      __m256 acc1 = _mm256_loadu_ps(orow + c + 8);
      for (size_t i = 0; i < n; ++i) {
        const __m256 av = _mm256_set1_ps(A[i * p + r]);
        const float* brow = B + i * q + c;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
      }
      _mm256_storeu_ps(orow + c, acc0);
      _mm256_storeu_ps(orow + c + 8, acc1);
    }
    for (; c + 8 <= q; c += 8) {
      __m256 acc = _mm256_loadu_ps(orow + c);
      for (size_t i = 0; i < n; ++i) {
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(A[i * p + r]), _mm256_loadu_ps(B + i * q + c)));
      }
      _mm256_storeu_ps(orow + c, acc);
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

DEEPREST_AVX2_TARGET void AccABTAvx2(const float* A, const float* B, float* O, size_t n,
                                     size_t k, size_t m) {
  if (k == 1) {
    // Rank-1 accumulate: out[i][j] += a[i] * b[j], with B (m x 1) contiguous.
    // No reduction, so it is exact and bit-identical to the scalar rung: the
    // scalar rung's exact double product rounds once to float, exactly like
    // a float multiply, and its +0 seed turns a -0 product into +0, which
    // the `+ 0` below reproduces before the separate add.
    const __m256 zero = _mm256_setzero_ps();
    for (size_t i = 0; i < n; ++i) {
      const __m256 av = _mm256_set1_ps(A[i]);
      float* orow = O + i * m;
      size_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m256 prod = _mm256_add_ps(_mm256_mul_ps(av, _mm256_loadu_ps(B + j)), zero);
        _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j), prod));
      }
      for (; j < m; ++j) {
        orow[j] += 0.0f + A[i] * B[j];
      }
    }
    return;
  }
  // Double-accumulated row-dot-row products, like the reference — but the
  // 4-wide double lanes reassociate the sum, so this is ULP-bounded.
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = B + j * k;
      __m256d acc = _mm256_setzero_pd();
      size_t c = 0;
      for (; c + 4 <= k; c += 4) {
        const __m256d av = _mm256_cvtps_pd(_mm_loadu_ps(arow + c));
        const __m256d bv = _mm256_cvtps_pd(_mm_loadu_ps(brow + c));
        acc = _mm256_fmadd_pd(av, bv, acc);
      }
      double sum = HSum256d(acc);
      for (; c < k; ++c) {
        sum += static_cast<double>(arow[c]) * brow[c];
      }
      orow[j] += static_cast<float>(sum);
    }
  }
}

DEEPREST_AVX2_TARGET void AddAvx2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

DEEPREST_AVX2_TARGET void AxpbyAvx2(const float* a, const float* b, float scale, float* out,
                                    size_t n) {
  const __m256 sv = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), prod));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + scale * b[i];
  }
}

DEEPREST_AVX2_TARGET void HadamardAvx2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

const KernelTable kAvx2Table = {
    MatMulAvx2, AccATBAvx2, AccABTAvx2, AddAvx2, AxpbyAvx2, HadamardAvx2,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#else  // non-x86

namespace deeprest {
namespace simd {
namespace detail {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#endif

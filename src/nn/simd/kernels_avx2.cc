// AVX2 + FMA kernels. Compiled unconditionally on x86 via per-function
// target attributes (no -mavx2 flag), so the binary stays runnable on
// pre-AVX2 hosts — the dispatch layer only routes here after a CPUID probe.
//
// Numerics per the dispatch.h contract:
//   * every kernel but the GEMV (mat-mat MatMul, AccumulateATransposeB,
//     AccumulateABTranspose, the element-wise kernels and AdamStep) uses
//     separate mul / add / div / sqrt (never FMA), and each lane is one
//     independent output element with its reduction in ascending order, so
//     results are bit-identical to the scalar rung. AccumulateABTranspose's
//     lanes are 4 output columns, each a double chain in ascending k.
//   * the m == 1 GEMV path uses lane-parallel FMA reductions (ULP-bounded,
//     not bit-exact).
//   * LaneAccumulate's lanes are 8 consecutive l of one output row, each a
//     chain in ascending c.
//   * Sigmoid and Tanh evaluate the scalar bodies of nonlinear.h in every
//     lane: exp in double, 4 lanes per ymm, fused where the body calls
//     std::fma, and tanh's expm1 with every branch computed and selected per
//     lane. Lanes off the bodies' main path (|x| >= 88 or NaN for exp, +-inf
//     or NaN for tanh) take the body itself.
#include "src/nn/simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

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
  // Lanes are output columns; broadcast A[i][r], stream B rows. Four output
  // rows per column tile: four independent ascending-i chains share every B
  // load, and each element still rounds its multiplies and adds separately.
  size_t r = 0;
  for (; r + 4 <= p; r += 4) {
    float* o0 = O + (r + 0) * q;
    float* o1 = O + (r + 1) * q;
    float* o2 = O + (r + 2) * q;
    float* o3 = O + (r + 3) * q;
    size_t c = 0;
    for (; c + 16 <= q; c += 16) {
      __m256 acc00 = _mm256_loadu_ps(o0 + c);
      __m256 acc01 = _mm256_loadu_ps(o0 + c + 8);
      __m256 acc10 = _mm256_loadu_ps(o1 + c);
      __m256 acc11 = _mm256_loadu_ps(o1 + c + 8);
      __m256 acc20 = _mm256_loadu_ps(o2 + c);
      __m256 acc21 = _mm256_loadu_ps(o2 + c + 8);
      __m256 acc30 = _mm256_loadu_ps(o3 + c);
      __m256 acc31 = _mm256_loadu_ps(o3 + c + 8);
      for (size_t i = 0; i < n; ++i) {
        const float* arow = A + i * p + r;
        const float* brow = B + i * q + c;
        const __m256 bv0 = _mm256_loadu_ps(brow);
        const __m256 bv1 = _mm256_loadu_ps(brow + 8);
        const __m256 av0 = _mm256_set1_ps(arow[0]);
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av0, bv0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av0, bv1));
        const __m256 av1 = _mm256_set1_ps(arow[1]);
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av1, bv0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av1, bv1));
        const __m256 av2 = _mm256_set1_ps(arow[2]);
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av2, bv0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av2, bv1));
        const __m256 av3 = _mm256_set1_ps(arow[3]);
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av3, bv0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av3, bv1));
      }
      _mm256_storeu_ps(o0 + c, acc00);
      _mm256_storeu_ps(o0 + c + 8, acc01);
      _mm256_storeu_ps(o1 + c, acc10);
      _mm256_storeu_ps(o1 + c + 8, acc11);
      _mm256_storeu_ps(o2 + c, acc20);
      _mm256_storeu_ps(o2 + c + 8, acc21);
      _mm256_storeu_ps(o3 + c, acc30);
      _mm256_storeu_ps(o3 + c + 8, acc31);
    }
    for (; c + 8 <= q; c += 8) {
      __m256 acc0 = _mm256_loadu_ps(o0 + c);
      __m256 acc1 = _mm256_loadu_ps(o1 + c);
      __m256 acc2 = _mm256_loadu_ps(o2 + c);
      __m256 acc3 = _mm256_loadu_ps(o3 + c);
      for (size_t i = 0; i < n; ++i) {
        const float* arow = A + i * p + r;
        const __m256 bv = _mm256_loadu_ps(B + i * q + c);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(arow[0]), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(arow[1]), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(arow[2]), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(arow[3]), bv));
      }
      _mm256_storeu_ps(o0 + c, acc0);
      _mm256_storeu_ps(o1 + c, acc1);
      _mm256_storeu_ps(o2 + c, acc2);
      _mm256_storeu_ps(o3 + c, acc3);
    }
    for (; c < q; ++c) {
      float acc0 = o0[c], acc1 = o1[c], acc2 = o2[c], acc3 = o3[c];
      for (size_t i = 0; i < n; ++i) {
        const float* arow = A + i * p + r;
        const float bv = B[i * q + c];
        acc0 += arow[0] * bv;
        acc1 += arow[1] * bv;
        acc2 += arow[2] * bv;
        acc3 += arow[3] * bv;
      }
      o0[c] = acc0;
      o1[c] = acc1;
      o2[c] = acc2;
      o3[c] = acc3;
    }
  }
  for (; r < p; ++r) {
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

// AccumulateABTranspose's transposed column tile, grown on demand. One per
// thread, so models training in parallel never share it.
std::vector<double>& AbtTileBuffer() {
  thread_local std::vector<double> tile;
  return tile;
}

// out[0, width) += acc's 4 double lanes, each rounded to float first.
DEEPREST_AVX2_TARGET inline void AddLanesToRow(__m256d acc, float* out, size_t width) {
  const __m128 sum = _mm256_cvtpd_ps(acc);
  if (width == 4) {
    _mm_storeu_ps(out, _mm_add_ps(_mm_loadu_ps(out), sum));
    return;
  }
  float lanes[4];
  _mm_storeu_ps(lanes, sum);
  for (size_t jj = 0; jj < width; ++jj) {
    out[jj] += lanes[jj];
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
  // Lanes are 4 output columns j. Each lane's double chain starts at +0 and
  // adds its float x float products, which are exact in double, in
  // ascending c with a separate multiply and add: each add is the only
  // rounding, in the scalar rung's order. B's column tile is transposed once
  // per call into a k x 4 double tile, zero past column m, and four rows of
  // A share each tile load.
  std::vector<double>& buffer = AbtTileBuffer();
  if (buffer.size() < k * 4) {
    buffer.resize(k * 4);
  }
  double* tile = buffer.data();
  for (size_t j = 0; j < m; j += 4) {
    const size_t width = std::min<size_t>(4, m - j);
    if (width < 4) {
      std::fill(tile, tile + k * 4, 0.0);
    }
    for (size_t jj = 0; jj < width; ++jj) {
      const float* brow = B + (j + jj) * k;
      for (size_t c = 0; c < k; ++c) {
        tile[c * 4 + jj] = brow[c];
      }
    }
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float* a0 = A + (i + 0) * k;
      const float* a1 = A + (i + 1) * k;
      const float* a2 = A + (i + 2) * k;
      const float* a3 = A + (i + 3) * k;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (size_t c = 0; c < k; ++c) {
        const __m256d bt = _mm256_loadu_pd(tile + c * 4);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(a0[c]), bt));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(a1[c]), bt));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(a2[c]), bt));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(a3[c]), bt));
      }
      AddLanesToRow(acc0, O + (i + 0) * m + j, width);
      AddLanesToRow(acc1, O + (i + 1) * m + j, width);
      AddLanesToRow(acc2, O + (i + 2) * m + j, width);
      AddLanesToRow(acc3, O + (i + 3) * m + j, width);
    }
    for (; i < n; ++i) {
      const float* arow = A + i * k;
      __m256d acc = _mm256_setzero_pd();
      for (size_t c = 0; c < k; ++c) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[c]),
                                               _mm256_loadu_pd(tile + c * 4)));
      }
      AddLanesToRow(acc, O + i * m + j, width);
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

DEEPREST_AVX2_TARGET void AdamStepAvx2(const float* g, float* m, float* v, float* value,
                                       size_t n, const AdamStepParams& params) {
  const __m256 beta1 = _mm256_set1_ps(params.beta1);
  const __m256 beta2 = _mm256_set1_ps(params.beta2);
  const __m256 one_minus_beta1 = _mm256_set1_ps(1.0f - params.beta1);
  const __m256 one_minus_beta2 = _mm256_set1_ps(1.0f - params.beta2);
  const __m256 bias1 = _mm256_set1_ps(params.bias1);
  const __m256 bias2 = _mm256_set1_ps(params.bias2);
  const __m256 lr = _mm256_set1_ps(params.learning_rate);
  const __m256 eps = _mm256_set1_ps(params.epsilon);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_minus_beta1, gv));
    const __m256 vv = _mm256_add_ps(_mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
                                    _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gv), gv));
    const __m256 m_hat = _mm256_div_ps(mv, bias1);
    const __m256 v_hat = _mm256_div_ps(vv, bias2);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lr, m_hat),
                                      _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(_mm256_loadu_ps(value + i), step));
  }
  for (; i < n; ++i) {
    AdamElement(g[i], m[i], v[i], value[i], params);
  }
}

// Lanes are 8 consecutive l of one output row. Four rows share every load
// of a, and each lane adds its k products in ascending c with a separate
// multiply and add, from out's value; the lanes past the last full group of
// 8 run the plain loop.
DEEPREST_AVX2_TARGET void LaneAccumulateAvx2(const float* a, const float* w, float* out,
                                             size_t k, size_t m, size_t lanes) {
  size_t l = 0;
  for (; l + 8 <= lanes; l += 8) {
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      float* o = out + j * lanes + l;
      __m256 acc0 = _mm256_loadu_ps(o);
      __m256 acc1 = _mm256_loadu_ps(o + lanes);
      __m256 acc2 = _mm256_loadu_ps(o + 2 * lanes);
      __m256 acc3 = _mm256_loadu_ps(o + 3 * lanes);
      for (size_t c = 0; c < k; ++c) {
        const __m256 av = _mm256_loadu_ps(a + c * lanes + l);
        const float* wc = w + (c * m + j) * lanes + l;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(wc)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(wc + lanes)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(av, _mm256_loadu_ps(wc + 2 * lanes)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(av, _mm256_loadu_ps(wc + 3 * lanes)));
      }
      _mm256_storeu_ps(o, acc0);
      _mm256_storeu_ps(o + lanes, acc1);
      _mm256_storeu_ps(o + 2 * lanes, acc2);
      _mm256_storeu_ps(o + 3 * lanes, acc3);
    }
    for (; j < m; ++j) {
      float* o = out + j * lanes + l;
      __m256 acc = _mm256_loadu_ps(o);
      for (size_t c = 0; c < k; ++c) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + c * lanes + l),
                                               _mm256_loadu_ps(w + (c * m + j) * lanes + l)));
      }
      _mm256_storeu_ps(o, acc);
    }
  }
  if (l < lanes) {
    LaneAccumulateLoop(a, w, out, k, m, lanes, l);
  }
}

// ---- Sigmoid and Tanh: the scalar bodies of nonlinear.h, lane by lane ----

DEEPREST_AVX2_TARGET inline __m256 Bits256(__m256i v) { return _mm256_castsi256_ps(v); }
DEEPREST_AVX2_TARGET inline __m256i Int256(__m256 v) { return _mm256_castps_si256(v); }

// ExpfBody's main path for 4 floats, in double: the argument reduction and
// the polynomial fused exactly where the body calls std::fma.
DEEPREST_AVX2_TARGET inline __m128 ExpMainPath(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2_n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
  __m256i t = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExp2Table),
                                     _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  t = _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47));
  const __m256d s = _mm256_castsi256_pd(t);
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  y = _mm256_mul_pd(y, s);
  return _mm256_cvtpd_ps(y);
}

// The main path for 8 floats, 4 double lanes at a time.
DEEPREST_AVX2_TARGET inline __m256 ExpMainPath(__m256 x) {
  const __m128 lo = ExpMainPath(_mm256_castps256_ps128(x));
  const __m128 hi = ExpMainPath(_mm256_extractf128_ps(x, 1));
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// Replaces the lanes whose bit `special` sets with body(x) lane by lane.
template <float (*Body)(float)>
DEEPREST_AVX2_TARGET inline __m256 PatchLanes(__m256 x, __m256 y, int special) {
  alignas(32) float xs[8];
  alignas(32) float ys[8];
  _mm256_store_ps(xs, x);
  _mm256_store_ps(ys, y);
  for (unsigned bits = static_cast<unsigned>(special); bits != 0; bits &= bits - 1) {
    const int lane = __builtin_ctz(bits);
    ys[lane] = Body(xs[lane]);
  }
  return _mm256_load_ps(ys);
}

// a > b per 32-bit lane (signed), as a float select mask.
DEEPREST_AVX2_TARGET inline __m256 Greater(__m256i a, __m256i b) {
  return Bits256(_mm256_cmpgt_epi32(a, b));
}

// 1 / (1 + exp(-x)). Lanes whose exp argument has |x| >= 88 or is NaN leave
// the body's main path and take the body.
DEEPREST_AVX2_TARGET inline __m256 Sigmoid8(__m256 x) {
  const __m256 sign = Bits256(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 y =
      _mm256_div_ps(one, _mm256_add_ps(one, ExpMainPath(_mm256_xor_ps(x, sign))));
  const __m256i abs_bits = Int256(_mm256_andnot_ps(sign, x));
  const int special = _mm256_movemask_ps(
      Greater(abs_bits, _mm256_set1_epi32(static_cast<int>(kExpSpecialAbsBits) - 1)));
  return special == 0 ? y : PatchLanes<SigmoidBody>(x, y, special);
}

// Runs `op` over 8 lanes at a time; a tail of fewer than 8 goes through a
// zero-padded copy, so every element takes the vector path.
template <__m256 (*Op)(__m256)>
DEEPREST_AVX2_TARGET inline void Map8(const float* a, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Op(_mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    alignas(32) float tail[8] = {};
    std::copy(a + i, a + n, tail);
    _mm256_store_ps(tail, Op(_mm256_load_ps(tail)));
    std::copy(tail, tail + (n - i), out + i);
  }
}

DEEPREST_AVX2_TARGET void SigmoidAvx2(const float* a, float* out, size_t n) {
  Map8<Sigmoid8>(a, out, n);
}

// Expm1fBody for the arguments TanhfBody passes it: 2|x| in [2, 44) and
// -2|x| in (-2, -2^-54]. Every branch runs in every lane and each lane
// selects its own. Below 44 the huge-argument filter never returns early,
// and a positive argument (>= 2) never takes the k == 1 branch.
DEEPREST_AVX2_TARGET inline __m256 Expm1ForTanh(__m256 x) {
  const __m256 sign = Bits256(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i hx = Int256(_mm256_andnot_ps(sign, x));
  // k: 0 up to 0.5 ln2, +-1 below 1.5 ln2, else trunc(x / ln2 +- 0.5). The
  // +-1 branch's hi and lo are x - k ln2_hi and k ln2_lo with k = +-1, and
  // k = 0 leaves x and c unchanged, so one reduction serves every k.
  const __m256 signed_half = _mm256_or_ps(half, _mm256_and_ps(x, sign));
  const __m256i k_general = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kExpm1InvLn2), x), signed_half));
  const __m256i k_one =
      _mm256_or_si256(_mm256_set1_epi32(1), _mm256_srai_epi32(Int256(x), 31));  // +-1
  const __m256i reduced = _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb17218));
  const __m256i near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3F851592), hx);
  const __m256i k = _mm256_and_si256(reduced, _mm256_blendv_epi8(k_general, k_one, near));
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(kExpm1Ln2Hi)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(kExpm1Ln2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q4),
                              _mm256_mul_ps(hxs, _mm256_set1_ps(kExpm1Q5)));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
  const __m256 tt = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(xr, tt))));
  // k == 0.
  __m256 result = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256i k_exp = _mm256_slli_epi32(k, 23);
  // k == -1.
  const __m256 minus_one =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, ek)), half);
  // k <= -2 or k > 56.
  const __m256 y_far = Bits256(
      _mm256_add_epi32(Int256(_mm256_sub_ps(one, _mm256_sub_ps(ek, xr))), k_exp));
  const __m256 far = _mm256_sub_ps(y_far, one);
  // 2 <= k < 23: t = 1 - 2^-k.
  const __m256 t_low = Bits256(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000), _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 low = Bits256(
      _mm256_add_epi32(Int256(_mm256_sub_ps(t_low, _mm256_sub_ps(ek, xr))), k_exp));
  // 23 <= k <= 56: t = 2^-k.
  const __m256 t_high =
      Bits256(_mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 high = Bits256(_mm256_add_epi32(
      Int256(_mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(ek, t_high)), one)), k_exp));
  const __m256 is_minus_one = Bits256(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)));
  const __m256 is_far = _mm256_or_ps(Greater(_mm256_set1_epi32(-1), k),
                                     Greater(k, _mm256_set1_epi32(56)));
  const __m256 is_low =
      _mm256_and_ps(Greater(k, _mm256_set1_epi32(1)), Greater(_mm256_set1_epi32(23), k));
  const __m256 is_high =
      _mm256_and_ps(Greater(k, _mm256_set1_epi32(22)), Greater(_mm256_set1_epi32(57), k));
  result = _mm256_blendv_ps(result, minus_one, is_minus_one);
  result = _mm256_blendv_ps(result, far, is_far);
  result = _mm256_blendv_ps(result, low, is_low);
  result = _mm256_blendv_ps(result, high, is_high);
  // |x| < 2^-25: x, via the body's x - ((huge + x) - (huge + x)).
  const __m256 big = _mm256_add_ps(_mm256_set1_ps(kExpm1Huge), x);
  const __m256 tiny_result = _mm256_sub_ps(x, _mm256_sub_ps(big, big));
  return _mm256_blendv_ps(result, tiny_result, Greater(_mm256_set1_epi32(0x33000000), hx));
}

// tanh; +-inf and NaN take the body.
DEEPREST_AVX2_TARGET inline __m256 Tanh8(__m256 x) {
  const __m256 sign = Bits256(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 ax = _mm256_andnot_ps(sign, x);
  const __m256i ix = Int256(ax);
  // |x| >= 1: expm1(2|x|) and 1 - 2 / (t + 2); else expm1(-2|x|) and
  // -t / (t + 2).
  const __m256 ge_one = Greater(ix, _mm256_set1_epi32(0x3f800000 - 1));
  const __m256 twice = _mm256_mul_ps(two, ax);
  const __m256 arg = _mm256_blendv_ps(_mm256_or_ps(twice, sign), twice, ge_one);
  const __m256 t = Expm1ForTanh(arg);
  // One divide per lane: the numerator is 2 or -t.
  const __m256 q = _mm256_div_ps(_mm256_blendv_ps(_mm256_xor_ps(t, sign), two, ge_one),
                                 _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge_one);
  // |x| >= 22: 1 - tiny, which rounds to 1.
  z = _mm256_blendv_ps(z, one, Greater(ix, _mm256_set1_epi32(0x41b00000 - 1)));
  __m256 y = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
  // |x| < 2^-55, +-0 included: x * (1 + x).
  y = _mm256_blendv_ps(y, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
                       Greater(_mm256_set1_epi32(0x24000000), ix));
  const int special = _mm256_movemask_ps(Greater(ix, _mm256_set1_epi32(0x7f800000 - 1)));
  return special == 0 ? y : PatchLanes<TanhfBody>(x, y, special);
}

DEEPREST_AVX2_TARGET void TanhAvx2(const float* a, float* out, size_t n) {
  Map8<Tanh8>(a, out, n);
}

const KernelTable kAvx2Table = {
    MatMulAvx2,   AccATBAvx2,   AccABTAvx2,  AddAvx2,  AxpbyAvx2,
    HadamardAvx2, AdamStepAvx2, SigmoidAvx2, TanhAvx2, LaneAccumulateAvx2,
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

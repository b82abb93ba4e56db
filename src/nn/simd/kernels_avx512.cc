// AVX-512F kernels (16-lane zmm). Same numerics contract as the AVX2 TU:
// every kernel but the GEMV uses separate mul+add per lane and is
// bit-identical to the scalar rung (AccumulateABTranspose with 8 double
// lanes, one output column each; LaneAccumulate with 16 lanes of one output
// row); the GEMV path uses FMA lane reductions (ULP-bounded). Sigmoid and
// Tanh evaluate the scalar bodies of nonlinear.h in every lane: exp in
// double, 8 lanes per zmm, fused where the body calls std::fma, and tanh's
// expm1 with every branch computed and selected per lane. Lanes off the
// bodies' main path (|x| >= 88 or NaN for exp, +-inf or NaN for tanh) take
// the body itself.
#include "src/nn/simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

// GCC 12 flags the _mm512_undefined_pd() pass-through operand inside the
// header's own _mm512_cvtps_pd / _mm512_extractf64x4_pd as
// maybe-uninitialized; the lanes are fully overwritten (mask = -1).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define DEEPREST_AVX512_TARGET __attribute__((target("avx512f")))

namespace deeprest {
namespace simd {
namespace detail {
namespace {

// Hand-rolled horizontal sums: GCC 12's _mm512_reduce_add_* go through
// _mm256_undefined_pd and trip -Wmaybe-uninitialized.
DEEPREST_AVX512_TARGET inline float HSum512(__m512 v) {
  const __m256 lo = _mm512_castps512_ps256(v);
  const __m256 hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  const __m256 s256 = _mm256_add_ps(lo, hi);
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(s256), _mm256_extractf128_ps(s256, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

DEEPREST_AVX512_TARGET void MatMulAvx512(const float* A, const float* B, float* O, size_t n,
                                         size_t k, size_t m) {
  if (m == 1) {
    for (size_t i = 0; i < n; ++i) {
      const float* arow = A + i * k;
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      size_t c = 0;
      for (; c + 32 <= k; c += 32) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(arow + c), _mm512_loadu_ps(B + c), acc0);
        acc1 =
            _mm512_fmadd_ps(_mm512_loadu_ps(arow + c + 16), _mm512_loadu_ps(B + c + 16), acc1);
      }
      for (; c + 16 <= k; c += 16) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(arow + c), _mm512_loadu_ps(B + c), acc0);
      }
      float acc = HSum512(_mm512_add_ps(acc0, acc1));
      for (; c < k; ++c) {
        acc += arow[c] * B[c];
      }
      O[i] = acc;
    }
    return;
  }
  // Mat-mat rows are blocked in fours purely for instruction-level
  // parallelism: four independent accumulator chains hide the add latency
  // and share every B-row load. Each output element still reduces in
  // ascending k with a separate multiply and add, so the blocking changes
  // no rounding — results stay bit-identical to a plain loop.
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
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      __m512 acc2 = _mm512_setzero_ps();
      __m512 acc3 = _mm512_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m512 bv = _mm512_loadu_ps(btile + c * m);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a0[c]), bv));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a1[c]), bv));
        acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a2[c]), bv));
        acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a3[c]), bv));
      }
      _mm512_storeu_ps(o0 + j, acc0);
      _mm512_storeu_ps(o1 + j, acc1);
      _mm512_storeu_ps(o2 + j, acc2);
      _mm512_storeu_ps(o3 + j, acc3);
    }
    if (j < m) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (m - j)) - 1u);
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      __m512 acc2 = _mm512_setzero_ps();
      __m512 acc3 = _mm512_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m512 bv = _mm512_maskz_loadu_ps(tail, btile + c * m);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a0[c]), bv));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a1[c]), bv));
        acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a2[c]), bv));
        acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a3[c]), bv));
      }
      _mm512_mask_storeu_ps(o0 + j, tail, acc0);
      _mm512_mask_storeu_ps(o1 + j, tail, acc1);
      _mm512_mask_storeu_ps(o2 + j, tail, acc2);
      _mm512_mask_storeu_ps(o3 + j, tail, acc3);
    }
  }
  for (; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = O + i * m;
    size_t j = 0;
    for (; j + 32 <= m; j += 32) {
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m512 av = _mm512_set1_ps(arow[c]);
        const float* brow = btile + c * m;
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(av, _mm512_loadu_ps(brow)));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(av, _mm512_loadu_ps(brow + 16)));
      }
      _mm512_storeu_ps(orow + j, acc0);
      _mm512_storeu_ps(orow + j + 16, acc1);
    }
    for (; j + 16 <= m; j += 16) {
      __m512 acc = _mm512_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        acc = _mm512_add_ps(acc,
                            _mm512_mul_ps(_mm512_set1_ps(arow[c]), _mm512_loadu_ps(btile + c * m)));
      }
      _mm512_storeu_ps(orow + j, acc);
    }
    if (j < m) {
      // Masked tail: still one independent output element per active lane.
      const __mmask16 tail = static_cast<__mmask16>((1u << (m - j)) - 1u);
      __m512 acc = _mm512_setzero_ps();
      const float* btile = B + j;
      for (size_t c = 0; c < k; ++c) {
        const __m512 bv = _mm512_maskz_loadu_ps(tail, btile + c * m);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(arow[c]), bv));
      }
      _mm512_mask_storeu_ps(orow + j, tail, acc);
    }
  }
}

// out rows r..r+3, the columns [c, c + 16) that `lanes` selects, += a^T b:
// four independent ascending-i chains share every B load.
DEEPREST_AVX512_TARGET inline void AtbRowBlock(const float* A, const float* B, float* O,
                                               size_t n, size_t p, size_t q, size_t r, size_t c,
                                               __mmask16 lanes) {
  float* o0 = O + (r + 0) * q + c;
  float* o1 = O + (r + 1) * q + c;
  float* o2 = O + (r + 2) * q + c;
  float* o3 = O + (r + 3) * q + c;
  __m512 acc0 = _mm512_maskz_loadu_ps(lanes, o0);
  __m512 acc1 = _mm512_maskz_loadu_ps(lanes, o1);
  __m512 acc2 = _mm512_maskz_loadu_ps(lanes, o2);
  __m512 acc3 = _mm512_maskz_loadu_ps(lanes, o3);
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * p + r;
    const __m512 bv = _mm512_maskz_loadu_ps(lanes, B + i * q + c);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(arow[0]), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(arow[1]), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(arow[2]), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(arow[3]), bv));
  }
  _mm512_mask_storeu_ps(o0, lanes, acc0);
  _mm512_mask_storeu_ps(o1, lanes, acc1);
  _mm512_mask_storeu_ps(o2, lanes, acc2);
  _mm512_mask_storeu_ps(o3, lanes, acc3);
}

DEEPREST_AVX512_TARGET void AccATBAvx512(const float* A, const float* B, float* O, size_t n,
                                         size_t p, size_t q) {
  if (q == 1) {
    size_t r = 0;
    for (; r + 16 <= p; r += 16) {
      __m512 acc = _mm512_loadu_ps(O + r);
      for (size_t i = 0; i < n; ++i) {
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_loadu_ps(A + i * p + r), _mm512_set1_ps(B[i])));
      }
      _mm512_storeu_ps(O + r, acc);
    }
    if (r < p) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (p - r)) - 1u);
      __m512 acc = _mm512_maskz_loadu_ps(tail, O + r);
      for (size_t i = 0; i < n; ++i) {
        const __m512 av = _mm512_maskz_loadu_ps(tail, A + i * p + r);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(av, _mm512_set1_ps(B[i])));
      }
      _mm512_mask_storeu_ps(O + r, tail, acc);
    }
    return;
  }
  // Four output rows per column tile: four independent ascending-i chains
  // share every B load, and each element still rounds its multiplies and
  // adds separately in ascending i.
  size_t r = 0;
  for (; r + 4 <= p; r += 4) {
    size_t c = 0;
    for (; c + 16 <= q; c += 16) {
      AtbRowBlock(A, B, O, n, p, q, r, c, static_cast<__mmask16>(0xFFFF));
    }
    if (c < q) {
      AtbRowBlock(A, B, O, n, p, q, r, c, static_cast<__mmask16>((1u << (q - c)) - 1u));
    }
  }
  for (; r < p; ++r) {
    float* orow = O + r * q;
    size_t c = 0;
    for (; c + 16 <= q; c += 16) {
      __m512 acc = _mm512_loadu_ps(orow + c);
      for (size_t i = 0; i < n; ++i) {
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_set1_ps(A[i * p + r]), _mm512_loadu_ps(B + i * q + c)));
      }
      _mm512_storeu_ps(orow + c, acc);
    }
    if (c < q) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (q - c)) - 1u);
      __m512 acc = _mm512_maskz_loadu_ps(tail, orow + c);
      for (size_t i = 0; i < n; ++i) {
        const __m512 bv = _mm512_maskz_loadu_ps(tail, B + i * q + c);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(A[i * p + r]), bv));
      }
      _mm512_mask_storeu_ps(orow + c, tail, acc);
    }
  }
}

// AccumulateABTranspose's transposed column tile, grown on demand. One per
// thread, so models training in parallel never share it.
std::vector<double>& AbtTileBuffer() {
  thread_local std::vector<double> tile;
  return tile;
}

// out[0, width) += acc's 8 double lanes, each rounded to float first. The
// tail is scalar: a masked 256-bit load would need AVX512VL.
DEEPREST_AVX512_TARGET inline void AddLanesToRow(__m512d acc, float* out, size_t width) {
  const __m256 sum = _mm512_cvtpd_ps(acc);
  if (width == 8) {
    _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), sum));
    return;
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  for (size_t jj = 0; jj < width; ++jj) {
    out[jj] += lanes[jj];
  }
}

DEEPREST_AVX512_TARGET void AccABTAvx512(const float* A, const float* B, float* O, size_t n,
                                         size_t k, size_t m) {
  if (k == 1) {
    // Rank-1 accumulate: out[i][j] += a[i] * b[j], with B (m x 1) contiguous.
    // No reduction, so it is exact and bit-identical to the scalar rung: the
    // scalar rung's exact double product rounds once to float, exactly like
    // a float multiply, and its +0 seed turns a -0 product into +0, which
    // the `+ 0` below reproduces before the separate add.
    const __m512 zero = _mm512_setzero_ps();
    for (size_t i = 0; i < n; ++i) {
      const __m512 av = _mm512_set1_ps(A[i]);
      float* orow = O + i * m;
      size_t j = 0;
      for (; j + 16 <= m; j += 16) {
        const __m512 prod = _mm512_add_ps(_mm512_mul_ps(av, _mm512_loadu_ps(B + j)), zero);
        _mm512_storeu_ps(orow + j, _mm512_add_ps(_mm512_loadu_ps(orow + j), prod));
      }
      for (; j < m; ++j) {
        orow[j] += 0.0f + A[i] * B[j];
      }
    }
    return;
  }
  // Lanes are 8 output columns j. Each lane's double chain starts at +0 and
  // adds its float x float products, which are exact in double, in
  // ascending c with a separate multiply and add: each add is the only
  // rounding, in the scalar rung's order. B's column tile is transposed once
  // per call into a k x 8 double tile, zero past column m, and four rows of
  // A share each tile load.
  std::vector<double>& buffer = AbtTileBuffer();
  if (buffer.size() < k * 8) {
    buffer.resize(k * 8);
  }
  double* tile = buffer.data();
  for (size_t j = 0; j < m; j += 8) {
    const size_t width = std::min<size_t>(8, m - j);
    if (width < 8) {
      std::fill(tile, tile + k * 8, 0.0);
    }
    for (size_t jj = 0; jj < width; ++jj) {
      const float* brow = B + (j + jj) * k;
      for (size_t c = 0; c < k; ++c) {
        tile[c * 8 + jj] = brow[c];
      }
    }
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float* a0 = A + (i + 0) * k;
      const float* a1 = A + (i + 1) * k;
      const float* a2 = A + (i + 2) * k;
      const float* a3 = A + (i + 3) * k;
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      __m512d acc2 = _mm512_setzero_pd();
      __m512d acc3 = _mm512_setzero_pd();
      for (size_t c = 0; c < k; ++c) {
        const __m512d bt = _mm512_loadu_pd(tile + c * 8);
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(_mm512_set1_pd(a0[c]), bt));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(_mm512_set1_pd(a1[c]), bt));
        acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(_mm512_set1_pd(a2[c]), bt));
        acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(_mm512_set1_pd(a3[c]), bt));
      }
      AddLanesToRow(acc0, O + (i + 0) * m + j, width);
      AddLanesToRow(acc1, O + (i + 1) * m + j, width);
      AddLanesToRow(acc2, O + (i + 2) * m + j, width);
      AddLanesToRow(acc3, O + (i + 3) * m + j, width);
    }
    for (; i < n; ++i) {
      const float* arow = A + i * k;
      __m512d acc = _mm512_setzero_pd();
      for (size_t c = 0; c < k; ++c) {
        acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(arow[c]),
                                               _mm512_loadu_pd(tile + c * 8)));
      }
      AddLanesToRow(acc, O + i * m + j, width);
    }
  }
}

DEEPREST_AVX512_TARGET void AddAvx512(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

DEEPREST_AVX512_TARGET void AxpbyAvx512(const float* a, const float* b, float scale, float* out,
                                        size_t n) {
  const __m512 sv = _mm512_set1_ps(scale);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(sv, _mm512_loadu_ps(b + i));
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i), prod));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + scale * b[i];
  }
}

DEEPREST_AVX512_TARGET void HadamardAvx512(const float* a, const float* b, float* out,
                                           size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

DEEPREST_AVX512_TARGET void AdamStepAvx512(const float* g, float* m, float* v, float* value,
                                           size_t n, const AdamStepParams& params) {
  const __m512 beta1 = _mm512_set1_ps(params.beta1);
  const __m512 beta2 = _mm512_set1_ps(params.beta2);
  const __m512 one_minus_beta1 = _mm512_set1_ps(1.0f - params.beta1);
  const __m512 one_minus_beta2 = _mm512_set1_ps(1.0f - params.beta2);
  const __m512 bias1 = _mm512_set1_ps(params.bias1);
  const __m512 bias2 = _mm512_set1_ps(params.bias2);
  const __m512 lr = _mm512_set1_ps(params.learning_rate);
  const __m512 eps = _mm512_set1_ps(params.epsilon);
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 lanes = n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                                        : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 gv = _mm512_maskz_loadu_ps(lanes, g + i);
    const __m512 mv = _mm512_add_ps(_mm512_mul_ps(beta1, _mm512_maskz_loadu_ps(lanes, m + i)),
                                    _mm512_mul_ps(one_minus_beta1, gv));
    const __m512 vv =
        _mm512_add_ps(_mm512_mul_ps(beta2, _mm512_maskz_loadu_ps(lanes, v + i)),
                      _mm512_mul_ps(_mm512_mul_ps(one_minus_beta2, gv), gv));
    const __m512 m_hat = _mm512_div_ps(mv, bias1);
    const __m512 v_hat = _mm512_div_ps(vv, bias2);
    const __m512 step = _mm512_div_ps(_mm512_mul_ps(lr, m_hat),
                                      _mm512_add_ps(_mm512_sqrt_ps(v_hat), eps));
    _mm512_mask_storeu_ps(m + i, lanes, mv);
    _mm512_mask_storeu_ps(v + i, lanes, vv);
    _mm512_mask_storeu_ps(value + i, lanes,
                          _mm512_sub_ps(_mm512_maskz_loadu_ps(lanes, value + i), step));
  }
}

// Lanes are 16 consecutive l of one output row, `mask` selecting the live
// ones. Four rows share every load of a, and each lane still adds its k
// products in ascending c with a separate multiply and add, from out's value.
DEEPREST_AVX512_TARGET void LaneAccumulateAvx512(const float* a, const float* w, float* out,
                                                 size_t k, size_t m, size_t lanes) {
  for (size_t l = 0; l < lanes; l += 16) {
    const __mmask16 mask = lanes - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                                           : static_cast<__mmask16>((1u << (lanes - l)) - 1u);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      float* o = out + j * lanes + l;
      __m512 acc0 = _mm512_maskz_loadu_ps(mask, o);
      __m512 acc1 = _mm512_maskz_loadu_ps(mask, o + lanes);
      __m512 acc2 = _mm512_maskz_loadu_ps(mask, o + 2 * lanes);
      __m512 acc3 = _mm512_maskz_loadu_ps(mask, o + 3 * lanes);
      for (size_t c = 0; c < k; ++c) {
        const __m512 av = _mm512_maskz_loadu_ps(mask, a + c * lanes + l);
        const float* wc = w + (c * m + j) * lanes + l;
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask, wc)));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask, wc + lanes)));
        acc2 =
            _mm512_add_ps(acc2, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask, wc + 2 * lanes)));
        acc3 =
            _mm512_add_ps(acc3, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask, wc + 3 * lanes)));
      }
      _mm512_mask_storeu_ps(o, mask, acc0);
      _mm512_mask_storeu_ps(o + lanes, mask, acc1);
      _mm512_mask_storeu_ps(o + 2 * lanes, mask, acc2);
      _mm512_mask_storeu_ps(o + 3 * lanes, mask, acc3);
    }
    for (; j < m; ++j) {
      float* o = out + j * lanes + l;
      __m512 acc = _mm512_maskz_loadu_ps(mask, o);
      for (size_t c = 0; c < k; ++c) {
        const __m512 av = _mm512_maskz_loadu_ps(mask, a + c * lanes + l);
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(mask, w + (c * m + j) * lanes + l)));
      }
      _mm512_mask_storeu_ps(o, mask, acc);
    }
  }
}

// ---- Sigmoid and Tanh: the scalar bodies of nonlinear.h, lane by lane ----

DEEPREST_AVX512_TARGET inline __m512 Bits512(__m512i v) { return _mm512_castsi512_ps(v); }
DEEPREST_AVX512_TARGET inline __m512i Int512(__m512 v) { return _mm512_castps_si512(v); }

// ExpfBody's main path for 8 floats, in double: the argument reduction and
// the polynomial fused exactly where the body calls std::fma.
DEEPREST_AVX512_TARGET inline __m256 ExpMainPath(__m256 x) {
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d inv_ln2_n = _mm512_set1_pd(kExpInvLn2N);
  const __m512d shift = _mm512_set1_pd(kExpShift);
  __m512d kd = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
  __m512i t = _mm512_i64gather_epi64(_mm512_and_si512(ki, _mm512_set1_epi64(31)), kExp2Table, 8);
  t = _mm512_add_epi64(t, _mm512_slli_epi64(ki, 47));
  const __m512d s = _mm512_castsi512_pd(t);
  const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(kExpC0), r, _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kExpC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  y = _mm512_mul_pd(y, s);
  return _mm512_cvtpd_ps(y);
}

// The main path for 16 floats, 8 double lanes at a time.
DEEPREST_AVX512_TARGET inline __m512 ExpMainPath(__m512 x) {
  const __m256 lo = ExpMainPath(_mm512_castps512_ps256(x));
  const __m256 hi =
      ExpMainPath(_mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)));
  return _mm512_castpd_ps(_mm512_insertf64x4(_mm512_castps_pd(_mm512_castps256_ps512(lo)),
                                             _mm256_castps_pd(hi), 1));
}

// Replaces the lanes `special` selects with body(x) lane by lane.
template <float (*Body)(float)>
DEEPREST_AVX512_TARGET inline __m512 PatchLanes(__m512 x, __m512 y, __mmask16 special) {
  alignas(64) float xs[16];
  alignas(64) float ys[16];
  _mm512_store_ps(xs, x);
  _mm512_store_ps(ys, y);
  for (unsigned bits = special; bits != 0; bits &= bits - 1) {
    const int lane = __builtin_ctz(bits);
    ys[lane] = Body(xs[lane]);
  }
  return _mm512_load_ps(ys);
}

// 1 / (1 + exp(-x)) for the lanes `valid` selects. Lanes whose exp argument
// has |x| >= 88 or is NaN leave the body's main path and take the body.
DEEPREST_AVX512_TARGET inline __m512 Sigmoid16(__m512 x, __mmask16 valid) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 neg = Bits512(_mm512_xor_si512(Int512(x), sign));
  const __m512 y = _mm512_div_ps(one, _mm512_add_ps(one, ExpMainPath(neg)));
  const __m512i abs_bits = _mm512_andnot_si512(sign, Int512(x));
  const __mmask16 special = _mm512_mask_cmpge_epi32_mask(
      valid, abs_bits, _mm512_set1_epi32(static_cast<int>(kExpSpecialAbsBits)));
  return special == 0 ? y : PatchLanes<SigmoidBody>(x, y, special);
}

DEEPREST_AVX512_TARGET void SigmoidAvx512(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 valid = n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                                        : static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(out + i, valid, Sigmoid16(_mm512_maskz_loadu_ps(valid, a + i), valid));
  }
}

// Expm1fBody for the arguments TanhfBody passes it: 2|x| in [2, 44) and
// -2|x| in (-2, -2^-54]. Every branch runs in every lane and each lane
// selects its own. Below 44 the huge-argument filter never returns early,
// and a positive argument (>= 2) never takes the k == 1 branch.
DEEPREST_AVX512_TARGET inline __m512 Expm1ForTanh(__m512 x) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512i xsb = _mm512_and_si512(Int512(x), sign);
  const __m512i hx = _mm512_andnot_si512(sign, Int512(x));
  // k: 0 up to 0.5 ln2, +-1 below 1.5 ln2, else trunc(x / ln2 +- 0.5). The
  // +-1 branch's hi and lo are x - k ln2_hi and k ln2_lo with k = +-1, and
  // k = 0 leaves x and c unchanged, so one reduction serves every k.
  const __m512 signed_half = Bits512(_mm512_or_si512(Int512(half), xsb));
  const __m512i k_general = _mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kExpm1InvLn2), x), signed_half));
  const __m512i k_one =
      _mm512_or_si512(_mm512_set1_epi32(1), _mm512_srai_epi32(Int512(x), 31));  // +-1
  const __mmask16 reduced = _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(0x3eb17218));
  const __mmask16 near = _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x3F851592));
  __m512i k = _mm512_mask_mov_epi32(k_general, near, k_one);
  k = _mm512_maskz_mov_epi32(reduced, k);
  const __m512 t = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(t, _mm512_set1_ps(kExpm1Ln2Hi)));
  const __m512 lo = _mm512_mul_ps(t, _mm512_set1_ps(kExpm1Ln2Lo));
  const __m512 xr = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

  const __m512 hfx = _mm512_mul_ps(half, xr);
  const __m512 hxs = _mm512_mul_ps(xr, hfx);
  __m512 poly = _mm512_add_ps(_mm512_set1_ps(kExpm1Q4),
                              _mm512_mul_ps(hxs, _mm512_set1_ps(kExpm1Q5)));
  poly = _mm512_add_ps(_mm512_set1_ps(kExpm1Q3), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(_mm512_set1_ps(kExpm1Q2), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(_mm512_set1_ps(kExpm1Q1), _mm512_mul_ps(hxs, poly));
  const __m512 r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, poly));
  const __m512 tt = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, tt),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f), _mm512_mul_ps(xr, tt))));
  // k == 0.
  __m512 result = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
  const __m512 ek = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c), hxs);
  const __m512i k_exp = _mm512_slli_epi32(k, 23);
  // k == -1.
  const __m512 minus_one =
      _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(xr, ek)), half);
  // k <= -2 or k > 56.
  const __m512 y_far = Bits512(
      _mm512_add_epi32(Int512(_mm512_sub_ps(one, _mm512_sub_ps(ek, xr))), k_exp));
  const __m512 far = _mm512_sub_ps(y_far, one);
  // 2 <= k < 23: t = 1 - 2^-k.
  const __m512 t_low = Bits512(_mm512_sub_epi32(
      _mm512_set1_epi32(0x3f800000), _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k)));
  const __m512 low = Bits512(
      _mm512_add_epi32(Int512(_mm512_sub_ps(t_low, _mm512_sub_ps(ek, xr))), k_exp));
  // 23 <= k <= 56: t = 2^-k.
  const __m512 t_high =
      Bits512(_mm512_slli_epi32(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23));
  const __m512 high = Bits512(_mm512_add_epi32(
      Int512(_mm512_add_ps(_mm512_sub_ps(xr, _mm512_add_ps(ek, t_high)), one)), k_exp));
  const __mmask16 is_minus_one = _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1));
  const __mmask16 is_far = _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(-1)) |
                           _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
  const __mmask16 is_low = _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(1)) &
                           _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23));
  const __mmask16 is_high = _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(22)) &
                            _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(57));
  result = _mm512_mask_mov_ps(result, is_minus_one, minus_one);
  result = _mm512_mask_mov_ps(result, is_far, far);
  result = _mm512_mask_mov_ps(result, is_low, low);
  result = _mm512_mask_mov_ps(result, is_high, high);
  // |x| < 2^-25: x, via the body's x - ((huge + x) - (huge + x)).
  const __m512 big = _mm512_add_ps(_mm512_set1_ps(kExpm1Huge), x);
  const __m512 tiny_result = _mm512_sub_ps(x, _mm512_sub_ps(big, big));
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x33000000));
  return _mm512_mask_mov_ps(result, tiny, tiny_result);
}

// tanh for the lanes `valid` selects; +-inf and NaN take the body.
DEEPREST_AVX512_TARGET inline __m512 Tanh16(__m512 x, __mmask16 valid) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512i jsb = _mm512_and_si512(Int512(x), sign);
  const __m512i ix = _mm512_andnot_si512(sign, Int512(x));
  const __m512 ax = Bits512(ix);
  // |x| >= 1: expm1(2|x|) and 1 - 2 / (t + 2); else expm1(-2|x|) and
  // -t / (t + 2).
  const __mmask16 ge_one = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x3f800000));
  const __m512 twice = _mm512_mul_ps(two, ax);
  const __m512 arg = _mm512_mask_mov_ps(Bits512(_mm512_or_si512(Int512(twice), sign)),
                                        ge_one, twice);
  const __m512 t = Expm1ForTanh(arg);
  // One divide per lane: the numerator is 2 or -t.
  const __m512 q = _mm512_div_ps(
      _mm512_mask_mov_ps(Bits512(_mm512_xor_si512(Int512(t), sign)), ge_one, two),
      _mm512_add_ps(t, two));
  __m512 z = _mm512_mask_mov_ps(q, ge_one, _mm512_sub_ps(one, q));
  // |x| >= 22: 1 - tiny, which rounds to 1.
  z = _mm512_mask_mov_ps(z, _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x41b00000)), one);
  __m512 y = Bits512(_mm512_xor_si512(Int512(z), jsb));
  // |x| < 2^-55, +-0 included: x * (1 + x).
  y = _mm512_mask_mov_ps(y, _mm512_cmplt_epi32_mask(ix, _mm512_set1_epi32(0x24000000)),
                         _mm512_mul_ps(x, _mm512_add_ps(one, x)));
  const __mmask16 special =
      _mm512_mask_cmpge_epi32_mask(valid, ix, _mm512_set1_epi32(0x7f800000));
  return special == 0 ? y : PatchLanes<TanhfBody>(x, y, special);
}

DEEPREST_AVX512_TARGET void TanhAvx512(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 valid = n - i >= 16 ? static_cast<__mmask16>(0xFFFF)
                                        : static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(out + i, valid, Tanh16(_mm512_maskz_loadu_ps(valid, a + i), valid));
  }
}

const KernelTable kAvx512Table = {
    MatMulAvx512,   AccATBAvx512,   AccABTAvx512,  AddAvx512,  AxpbyAvx512,
    HadamardAvx512, AdamStepAvx512, SigmoidAvx512, TanhAvx512, LaneAccumulateAvx512,
};

}  // namespace

const KernelTable* Avx512Table() { return &kAvx512Table; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#else  // non-x86

namespace deeprest {
namespace simd {
namespace detail {

const KernelTable* Avx512Table() { return nullptr; }

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#endif

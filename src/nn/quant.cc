#include "src/nn/quant.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/nn/simd/dispatch.h"

namespace deeprest {
namespace {

// Round-to-nearest-even without a libm call: adding and subtracting
// 1.5 * 2^23 forces the value onto the integer grid under the default
// rounding mode (exact for |v| <= 2^22; quantized values are in
// [-127, 127]). std::nearbyint and std::lrintf both stay out-of-line
// calls at -O2 because of math-errno, and this loop runs on every
// quantized inference call. Requires no -ffast-math (the project lint
// already forbids it) so the compiler cannot fold (v + m) - m to v.
inline int8_t RoundToInt8(float v) {
  const float clamped = std::max(-127.0f, std::min(127.0f, v));
  const float magic = 12582912.0f;  // 2^23 + 2^22
  const float rounded = (clamped + magic) - magic;
  return static_cast<int8_t>(rounded);
}

}  // namespace

uint16_t FloatToHalf(float value) {
  uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  const uint32_t abs = f & 0x7fffffffu;

  if (abs >= 0x7f800000u) {  // inf / NaN
    const uint32_t mantissa = abs > 0x7f800000u ? 0x0200u : 0u;  // quiet NaN keeps a payload bit
    return static_cast<uint16_t>(sign | 0x7c00u | mantissa);
  }
  if (abs >= 0x47800000u) {  // >= 65536: overflows half range, saturate to inf
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {  // < 2^-14: subnormal half (or zero)
    if (abs < 0x33000000u) {  // < 2^-25: rounds to zero
      return static_cast<uint16_t>(sign);
    }
    // Target is value * 2^24 (subnormal halves count in units of 2^-24);
    // with the implicit bit restored, that is the 24-bit mantissa shifted
    // down by 126 - biased_exponent (14 at the 2^-14 boundary, 24 at the
    // rounds-to-zero threshold).
    const int shift = 126 - static_cast<int>(abs >> 23);  // 14..24
    const uint32_t mantissa = (abs & 0x007fffffu) | 0x00800000u;
    const uint32_t shifted = mantissa >> shift;
    const uint32_t remainder = mantissa & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    uint32_t result = shifted;
    if (remainder > halfway || (remainder == halfway && (shifted & 1u))) {
      ++result;  // round-to-nearest-even
    }
    return static_cast<uint16_t>(sign | result);
  }
  // Normal half: rebias exponent, round 13 dropped mantissa bits to nearest-even.
  uint32_t half = sign | ((abs - 0x38000000u) >> 13);
  const uint32_t dropped = abs & 0x1fffu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (half & 1u))) {
    ++half;  // carries ripple into the exponent correctly (maps to inf at the top)
  }
  return static_cast<uint16_t>(half);
}

float HalfToFloat(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exponent = (bits >> 10) & 0x1fu;
  const uint32_t mantissa = bits & 0x03ffu;
  uint32_t f;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal half: normalize into a float exponent.
      int e = -1;
      uint32_t man = mantissa;
      do {
        ++e;
        man <<= 1;
      } while ((man & 0x0400u) == 0);
      f = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) | ((man & 0x03ffu) << 13);
    }
  } else if (exponent == 0x1fu) {
    f = sign | 0x7f800000u | (mantissa << 13);  // inf / NaN
  } else {
    f = sign | ((exponent + 112) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &f, sizeof(value));
  return value;
}

QuantizedMatrix QuantizeRowwise(const Matrix& m) {
  QuantizedMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.data.resize(q.rows * q.cols);
  q.scales.resize(q.rows);
  for (size_t r = 0; r < q.rows; ++r) {
    const float* row = m.data() + r * q.cols;
    float maxabs = 0.0f;
    for (size_t c = 0; c < q.cols; ++c) {
      maxabs = std::max(maxabs, std::fabs(row[c]));
    }
    const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    q.scales[r] = scale;
    int8_t* qrow = q.data.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      qrow[c] = RoundToInt8(row[c] * inv);
    }
  }
  return q;
}

Matrix Dequantize(const QuantizedMatrix& q) {
  Matrix m(q.rows, q.cols);
  for (size_t r = 0; r < q.rows; ++r) {
    const int8_t* qrow = q.data.data() + r * q.cols;
    const float scale = q.scales[r];
    float* row = m.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      row[c] = static_cast<float>(qrow[c]) * scale;
    }
  }
  return m;
}

void QuantizedMatMul(const QuantizedMatrix& w, const Matrix& x, Matrix& out,
                     QuantScratch& scratch) {
  assert(w.cols == x.cols());
  const size_t n = w.rows;
  const size_t k = w.cols;
  const size_t m = x.rows();
  scratch.x8.resize(m * k);
  scratch.xscale.resize(m);
  // Each activation row is one query and is already contiguous, so it
  // quantizes in place of itself: row b of x becomes row b of x8.
  for (size_t b = 0; b < m; ++b) {
    const float* xrow = x.data() + b * k;
    // max|x| over the row in eight independent running maxima, so the scan
    // vectorizes instead of being one serial chain; max is exact, so the
    // split cannot change the result.
    float lane[8] = {};
    size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      for (size_t j = 0; j < 8; ++j) {
        lane[j] = std::max(lane[j], std::fabs(xrow[c + j]));
      }
    }
    float maxabs = 0.0f;
    for (; c < k; ++c) {
      maxabs = std::max(maxabs, std::fabs(xrow[c]));
    }
    for (float v : lane) {
      maxabs = std::max(maxabs, v);
    }
    const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    scratch.xscale[b] = scale;
    int8_t* x8row = scratch.x8.data() + b * k;
    for (size_t d = 0; d < k; ++d) {
      x8row[d] = RoundToInt8(xrow[d] * inv);
    }
  }
  out.SetShape(m, n);
  simd::Int8MatMul(w.data.data(), w.scales.data(), scratch.x8.data(), scratch.xscale.data(),
                   out.data(), n, k, m);
}

HalfMatrix ToHalf(const Matrix& m) {
  HalfMatrix h;
  h.rows = m.rows();
  h.cols = m.cols();
  h.data.resize(m.size());
  const float* src = m.data();
  for (size_t i = 0; i < h.data.size(); ++i) {
    h.data[i] = FloatToHalf(src[i]);
  }
  return h;
}

Matrix FromHalf(const HalfMatrix& h) {
  Matrix m(h.rows, h.cols);
  float* dst = m.data();
  for (size_t i = 0; i < h.data.size(); ++i) {
    dst[i] = HalfToFloat(h.data[i]);
  }
  return m;
}

void RoundMatrixToHalf(Matrix& m) {
  float* d = m.data();
  for (size_t i = 0, e = m.size(); i < e; ++i) {
    d[i] = HalfToFloat(FloatToHalf(d[i]));
  }
}

}  // namespace deeprest

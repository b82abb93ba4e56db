#include "src/nn/quant.h"

#include <cstring>

namespace deeprest {

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

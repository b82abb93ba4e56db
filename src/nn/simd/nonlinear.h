// The scalar bodies of the owned nonlinearities: simd::Sigmoid and
// simd::Tanh (dispatch.h) return exactly these functions' bits on every
// rung. The scalar and NEON rungs loop over them; the AVX2 and AVX-512
// kernels evaluate the same operations lane by lane and fall back to them on
// the rare lanes off the main path.
//
// They reproduce glibc 2.36's float expf and tanhf bit for bit on every
// input (checked on all 2^32 floats against an FMA host's libm):
//   * ExpfBody is the expf algorithm of Arm's optimized-routines (MIT
//     licence), as glibc 2.36 ships it: x·32/ln2 = k + r, a 32-entry table of
//     2^(i/32) and an order-3 polynomial in r, all in double. Its five
//     multiply-adds (the two of the argument reduction and the three of the
//     polynomial) are fused explicitly with std::fma, as GCC fused them in
//     glibc's FMA build, which glibc's ifunc selects on every host with FMA
//     and AVX2. Unfused, 2 of the 2^32 expf results differ (no sigmoid
//     result does). This body and its vector mirrors are the tree's only
//     deliberate fusion outside the GEMV's reassociating lane reductions;
//     -ffp-contract=off stays global. At baseline x86-64 std::fma is a libm
//     call, so the scalar rung pays for it (its sigmoid is ~3x glibc's); the
//     vector rungs use the fused instructions.
//   * Expm1fBody and TanhfBody are fdlibm's float expm1f and tanhf in plain
//     float operations: glibc 2.36 builds them once, with no ifunc.
//   * SigmoidBody is the model's gate expression 1 / (1 + exp(-x)).
//
// expm1f and tanhf are ported from fdlibm:
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
#ifndef SRC_NN_SIMD_NONLINEAR_H_
#define SRC_NN_SIMD_NONLINEAR_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace deeprest {
namespace simd {

inline uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float BitsFloat(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// kExp2Table[i] = bits(2^(i/32)) - (i << 47): the double nearest
// exp2l(i / 32.0L), with the index pre-subtracted from its exponent field so
// that adding ki << 47 restores it and scales by 2^(ki / 32).
alignas(64) inline constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kExpShift = 0x1.8p+52;
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
// |x| >= 88 or NaN: the bits at or above which ExpfBody leaves its main path.
inline constexpr uint32_t kExpSpecialAbsBits = 0x42b00000;

inline float ExpfBody(float x) {
  const double xd = x;
  const uint32_t abstop = (FloatBits(x) >> 20) & 0x7ff;
  if (abstop >= (FloatBits(88.0f) >> 20)) {
    if (FloatBits(x) == FloatBits(-INFINITY)) return 0.0f;
    if (abstop >= (FloatBits(INFINITY) >> 20)) return x + x;
    if (x > 0x1.62e42ep6f) return INFINITY;
    if (x < -0x1.9fe368p6f) return 0.0f;
  }
  double kd = std::fma(kExpInvLn2N, xd, kExpShift);
  uint64_t ki;
  std::memcpy(&ki, &kd, sizeof(ki));
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  uint64_t t = kExp2Table[ki % 32];
  t += ki << 47;
  double s;
  std::memcpy(&s, &t, sizeof(s));
  const double z = std::fma(kExpC0, r, kExpC1);
  const double r2 = r * r;
  double y = std::fma(kExpC2, r, 1.0);
  y = std::fma(z, r2, y);
  y = y * s;
  return static_cast<float>(y);
}

// fdlibm's expm1f constants, shared with the vector tanh kernels.
inline constexpr float kExpm1Ln2Hi = 6.9313812256e-01f;
inline constexpr float kExpm1Ln2Lo = 9.0580006145e-06f;
inline constexpr float kExpm1InvLn2 = 1.4426950216e+00f;
inline constexpr float kExpm1Huge = 1.0e+30f;
inline constexpr float kExpm1Q1 = -3.3333335072e-02f;
inline constexpr float kExpm1Q2 = 1.5873016091e-03f;
inline constexpr float kExpm1Q3 = -7.9365076090e-05f;
inline constexpr float kExpm1Q4 = 4.0082177293e-06f;
inline constexpr float kExpm1Q5 = -2.0109921195e-07f;

inline float Expm1fBody(float x) {
  const float one = 1.0f, huge = kExpm1Huge, tiny = 1.0e-30f;
  const float o_threshold = 8.8721679688e+01f;
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  int32_t k;
  uint32_t hx = FloatBits(x);
  const uint32_t xsb = hx & 0x80000000u;
  hx &= 0x7fffffff;
  if (hx >= 0x4195b844) {  // |x| >= 27 ln2
    if (hx >= 0x42b17218) {  // |x| >= 88.721...
      if (hx > 0x7f800000) return x + x;  // NaN
      if (hx == 0x7f800000) return xsb == 0 ? x : -1.0f;  // exp(+-inf) - 1
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (xsb != 0) return tiny - one;  // x < -27 ln2: -1 with inexact
  }
  if (hx > 0x3eb17218) {  // |x| > 0.5 ln2: argument reduction
    if (hx < 0x3F851592) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - kExpm1Ln2Hi;
        lo = kExpm1Ln2Lo;
        k = 1;
      } else {
        hi = x + kExpm1Ln2Hi;
        lo = -kExpm1Ln2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kExpm1InvLn2 * x + ((xsb == 0) ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * kExpm1Ln2Hi;  // t * ln2_hi is exact here
      lo = t * kExpm1Ln2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25: return x, inexact if x != 0
    t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (kExpm1Q1 +
                    hxs * (kExpm1Q2 + hxs * (kExpm1Q3 + hxs * (kExpm1Q4 + hxs * kExpm1Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // suffices to return exp(x) - 1
    y = one - (e - x);
    y = BitsFloat(FloatBits(y) + (static_cast<uint32_t>(k) << 23));
    return y - one;
  }
  if (k < 23) {
    t = BitsFloat(0x3f800000 - (0x1000000 >> k));  // 1 - 2^-k
    y = t - (e - x);
    y = BitsFloat(FloatBits(y) + (static_cast<uint32_t>(k) << 23));
  } else {
    t = BitsFloat(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
    y = BitsFloat(FloatBits(y) + (static_cast<uint32_t>(k) << 23));
  }
  return y;
}

inline float TanhfBody(float x) {
  const float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
  const int32_t jx = static_cast<int32_t>(FloatBits(x));
  const int32_t ix = jx & 0x7fffffff;
  float t, z;
  if (ix >= 0x7f800000) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return jx >= 0 ? one / x + one : one / x - one;
  }
  if (ix < 0x41b00000) {  // |x| < 22
    if (ix == 0) return x;  // +-0
    if (ix < 0x24000000) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {  // |x| >= 1
      t = Expm1fBody(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      t = Expm1fBody(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {  // |x| >= 22: +-1 with inexact
    z = one - tiny;
  }
  return jx >= 0 ? z : -z;
}

// The GRU gate's sigmoid, as the forward writes it.
inline float SigmoidBody(float x) { return 1.0f / (1.0f + ExpfBody(-x)); }

}  // namespace simd
}  // namespace deeprest

#endif  // SRC_NN_SIMD_NONLINEAR_H_

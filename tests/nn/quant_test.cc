// Reduced-precision building blocks (src/nn/quant.h): fp16 conversion
// correctness down to the rounding mode, in-place half rounding, and the
// fp16 (v2) checkpoint format.
//
// The END-TO-END accuracy budget (quantile-loss delta of an fp16-rounded
// model vs its fp32 twin) lives in tests/core/quantized_inference_test.cc;
// these tests pin the pieces it is built from.
#include "src/nn/quant.h"

#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "src/nn/matrix.h"
#include "src/nn/rng.h"
#include "src/nn/serialize.h"

namespace deeprest {
namespace {

// ---- fp16 scalar conversions ----

TEST(QuantTest, HalfRoundTripsEveryEncodableValue) {
  // binary16 has only 65536 bit patterns: test ALL of them. Every non-NaN
  // half widens to float and narrows back to the identical bits (including
  // -0, subnormals, and both infinities); NaN narrows to some NaN.
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = HalfToFloat(h);
    const uint16_t back = FloatToHalf(f);
    const bool is_nan = (h & 0x7C00) == 0x7C00 && (h & 0x03FF) != 0;
    if (is_nan) {
      EXPECT_TRUE((back & 0x7C00) == 0x7C00 && (back & 0x03FF) != 0)
          << "bits 0x" << std::hex << bits;
    } else {
      EXPECT_EQ(back, h) << "bits 0x" << std::hex << bits;
    }
  }
}

TEST(QuantTest, FloatToHalfRoundsToNearestEven) {
  // Halves near 1.0 step by 2^-10; exact ties must round to the even
  // significand in both directions.
  const float tie_down = 1.0f + 0.00048828125f;      // 1 + 2^-11: tie -> 0x3C00
  const float tie_up = 1.0f + 3.0f * 0.00048828125f; // 1 + 3*2^-11: tie -> 0x3C02
  EXPECT_EQ(FloatToHalf(tie_down), 0x3C00);
  EXPECT_EQ(FloatToHalf(tie_up), 0x3C02);
  // Just past the tie rounds up/down normally.
  EXPECT_EQ(FloatToHalf(1.0f + 0.0005f), 0x3C01);
  EXPECT_EQ(FloatToHalf(1.0f + 0.0004f), 0x3C00);
}

TEST(QuantTest, FloatToHalfSaturatesAndHandlesTinyValues) {
  EXPECT_EQ(FloatToHalf(65504.0f), 0x7BFF);   // largest finite half
  EXPECT_EQ(FloatToHalf(1.0e6f), 0x7C00);     // overflow -> +inf
  EXPECT_EQ(FloatToHalf(-1.0e6f), 0xFC00);    // overflow -> -inf
  EXPECT_EQ(FloatToHalf(65520.0f), 0x7C00);   // tie at the overflow boundary
  const float min_subnormal = 5.9604644775390625e-8f;  // 2^-24
  EXPECT_EQ(FloatToHalf(min_subnormal), 0x0001);
  EXPECT_EQ(FloatToHalf(min_subnormal * 0.5f), 0x0000);  // 2^-25 ties to even 0
  EXPECT_EQ(FloatToHalf(min_subnormal * 0.6f), 0x0001);  // past the tie
  EXPECT_EQ(HalfToFloat(0x0001), min_subnormal);
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000);
  EXPECT_EQ(HalfToFloat(0x8000), -0.0f);
  EXPECT_TRUE(std::isinf(HalfToFloat(0x7C00)));
  EXPECT_TRUE(std::isnan(HalfToFloat(0x7E00)));
}

TEST(QuantTest, RoundMatrixToHalfIsIdempotentAndBounded) {
  Rng rng(401);
  Matrix m(9, 13);
  m.FillUniform(rng, 2.0f);
  Matrix original = m;
  RoundMatrixToHalf(m);
  for (size_t i = 0; i < m.size(); ++i) {
    // binary16 carries 11 significand bits: relative error <= 2^-11.
    EXPECT_LE(std::fabs(m[i] - original[i]),
              std::fabs(original[i]) * 0.00048828125f + 1e-8f)
        << "element " << i;
  }
  Matrix once = m;
  RoundMatrixToHalf(m);  // already half-exact: must be a no-op
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i], once[i]) << "element " << i;
  }
}

TEST(QuantTest, ToHalfFromHalfRoundTripsHalfExactValues) {
  Rng rng(402);
  Matrix m(5, 7);
  m.FillUniform(rng, 1.0f);
  RoundMatrixToHalf(m);  // make every entry exactly representable
  const HalfMatrix h = ToHalf(m);
  EXPECT_EQ(h.rows, m.rows());
  EXPECT_EQ(h.cols, m.cols());
  const Matrix back = FromHalf(h);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back[i], m[i]) << "element " << i;
  }
}

// ---- fp16 checkpoint format (v2) ----

ParameterStore MakeStore(uint64_t seed) {
  ParameterStore store;
  Rng rng(seed);
  Matrix a(3, 4);
  a.FillUniform(rng, 1.0f);
  Matrix b(2, 1);
  b.FillUniform(rng, 1.0f);
  store.Create("layer.W", a);
  store.Create("layer.b", b);
  return store;
}

TEST(QuantTest, Fp16CheckpointRoundTripsWithinHalfPrecision) {
  ParameterStore source = MakeStore(11);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParametersFp16(source, buffer));

  ParameterStore dest = MakeStore(12);
  ASSERT_TRUE(LoadParameters(dest, buffer));
  for (size_t e = 0; e < source.entries().size(); ++e) {
    const Matrix& src = source.entries()[e].value;
    const Matrix& got = dest.entries()[e].value;
    ASSERT_TRUE(src.SameShape(got));
    for (size_t i = 0; i < src.size(); ++i) {
      // Loaded value is exactly the half-rounded source value.
      EXPECT_EQ(got[i], HalfToFloat(FloatToHalf(src[i]))) << "element " << i;
    }
  }
}

TEST(QuantTest, Fp16CheckpointIsExactForHalfRoundedModels) {
  // The ModelRegistry fp16 storage policy rounds parameters in place, so a
  // v2 checkpoint of such a model round-trips BIT-EXACTLY.
  ParameterStore source = MakeStore(13);
  for (auto& entry : source.entries()) {
    RoundMatrixToHalf(entry.value);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveParametersFp16(source, buffer));
  ParameterStore dest = MakeStore(14);
  ASSERT_TRUE(LoadParameters(dest, buffer));
  for (size_t e = 0; e < source.entries().size(); ++e) {
    EXPECT_EQ(source.entries()[e].value, dest.entries()[e].value);
  }
}

TEST(QuantTest, Fp16CheckpointIsSmallerThanFp32) {
  ParameterStore store = MakeStore(15);
  std::stringstream v1, v2;
  ASSERT_TRUE(SaveParameters(store, v1));
  ASSERT_TRUE(SaveParametersFp16(store, v2));
  EXPECT_LT(v2.str().size(), v1.str().size());
}

TEST(QuantTest, V1CheckpointsStillLoad) {
  // Format compat: the fp32 writer and its reader are untouched by v2.
  ParameterStore source = MakeStore(16);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters(source, buffer));
  ParameterStore dest = MakeStore(17);
  ASSERT_TRUE(LoadParameters(dest, buffer));
  for (size_t e = 0; e < source.entries().size(); ++e) {
    EXPECT_EQ(source.entries()[e].value, dest.entries()[e].value);
  }
}

}  // namespace
}  // namespace deeprest

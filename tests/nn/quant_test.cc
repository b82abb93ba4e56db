// fp16 conversions (src/nn/quant.h), which the state cache's fp16 cold tier
// stores hidden states with: correctness down to the rounding mode.
#include "src/nn/quant.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace deeprest

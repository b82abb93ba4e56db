// Reduced-precision (fp16) storage for model parameters.
//
// IEEE binary16 is used two ways: in-place rounding of a cloned model's
// parameters (ModelRegistry fp16 storage policy — compute stays fp32,
// storage precision drops to 11 significand bits), and half-width checkpoint
// serialization (serialize.h format v2). Its accuracy budget is enforced
// end-to-end by the quantized_tests suite (quantile-loss delta vs fp32 under
// the bound documented in DESIGN.md §6).
#ifndef SRC_NN_QUANT_H_
#define SRC_NN_QUANT_H_

#include <cstdint>
#include <vector>

#include "src/nn/matrix.h"

namespace deeprest {

// ---- fp16 scalar conversions (portable bit-twiddle, no F16C needed) ----

// Round-to-nearest-even float -> binary16 bits. Overflow saturates to
// +/-inf; subnormal halves are produced for tiny magnitudes.
uint16_t FloatToHalf(float value);
float HalfToFloat(uint16_t bits);

// ---- fp16 matrices ----

struct HalfMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<uint16_t> data;  // row-major binary16 bits

  bool empty() const { return data.empty(); }
};

HalfMatrix ToHalf(const Matrix& m);
Matrix FromHalf(const HalfMatrix& h);

// In-place fp16 round-trip: every entry becomes the nearest binary16 value.
// This is the ModelRegistry storage policy — the matrix stays fp32 in
// memory layout but carries only half precision.
void RoundMatrixToHalf(Matrix& m);

}  // namespace deeprest

#endif  // SRC_NN_QUANT_H_

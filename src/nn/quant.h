// IEEE binary16 (fp16) scalar conversions.
//
// The state cache's fp16 cold tier (src/serve/state_cache.h) stores evicted
// stream hidden states as binary16 bits and widens them back on promotion;
// these are its two conversions. Model parameters are always fp32.
#ifndef SRC_NN_QUANT_H_
#define SRC_NN_QUANT_H_

#include <cstdint>

namespace deeprest {

// ---- fp16 scalar conversions (portable bit-twiddle, no F16C needed) ----

// Round-to-nearest-even float -> binary16 bits. Overflow saturates to
// +/-inf; subnormal halves are produced for tiny magnitudes.
uint16_t FloatToHalf(float value);
float HalfToFloat(uint16_t bits);

}  // namespace deeprest

#endif  // SRC_NN_QUANT_H_

// Reduced-precision storage and inference kernels.
//
// Two independent mechanisms live here:
//
//  * int8 quantized GEMM for inference. Weights are quantized per ROW with a
//    symmetric scale (scale_i = max|row_i| / 127, no zero-point — weight
//    distributions are zero-centered, and symmetric quantization keeps the
//    int8 dot product free of correction terms). Activations arrive
//    batch-row-major (one row per query) and are quantized per ROW at call
//    time (dynamic: scale_b = max|x[b,:]| / 127), so both operands stream
//    contiguously through the int8 kernel with no transpose. Accumulation is
//    int32 and therefore EXACT: the only error sources are the two rounding
//    steps, bounded by one weight LSB and one activation LSB. k * 127^2
//    stays far below 2^31 for every model shape.
//
//  * fp16 (IEEE binary16) storage for model parameters. Used two ways:
//    in-place rounding of a cloned model's parameters (ModelRegistry fp16
//    storage policy — compute stays fp32, storage precision drops to 11
//    significand bits), and half-width checkpoint serialization
//    (serialize.h format v2).
//
// The accuracy budget for both modes is enforced end-to-end by
// tests/core/quantized_inference_test.cc (quantile-loss delta vs fp32 under
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

// ---- int8 per-row quantized weights ----

struct QuantizedMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;    // row-major, rows * cols
  std::vector<float> scales;   // per-row dequantization scale, size rows

  bool empty() const { return data.empty(); }
};

// Per-row symmetric quantization: data[r][c] = round(m[r][c] / scale_r),
// scale_r = max|row_r| / 127 (1.0 for an all-zero row).
QuantizedMatrix QuantizeRowwise(const Matrix& m);

// Dequantized copy, for error analysis in tests.
Matrix Dequantize(const QuantizedMatrix& q);

// Reused activation-quantization buffers (one per inference call path; not
// thread-safe, same discipline as PackedScratch).
struct QuantScratch {
  std::vector<int8_t> x8;      // quantized activations, row-major like x
  std::vector<float> xscale;   // per-row scales
};

// out = x * dequant(w)^T computed in int8: quantizes each row of x into
// `scratch`, then runs the dispatch-selected Int8MatMul. x is (m x k) with
// one activation row per batch entry, w is (n x k), out becomes (m x n) —
// the batch-row-major layout of the packed inference step (batched.h).
void QuantizedMatMul(const QuantizedMatrix& w, const Matrix& x, Matrix& out,
                     QuantScratch& scratch);

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

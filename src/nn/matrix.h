// Dense row-major float matrix: the value type of every parameter, gradient
// and activation of the model.
//
// Deliberately minimal — just what the DeepRest model needs. All shapes are
// checked with assertions in debug builds; shape mismatches are programming
// errors, not runtime conditions.
#ifndef SRC_NN_MATRIX_H_
#define SRC_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace deeprest {

class Rng;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}
  Matrix(size_t rows, size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Builds a matrix from a nested initializer-style vector (rows of values).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);
  // Builds an n x 1 column vector.
  static Matrix Column(const std::vector<float>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  // Allocated entries, which SetShape keeps when it shrinks the matrix.
  size_t capacity() const { return data_.capacity(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float& operator[](size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  float operator[](size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Reshapes in place, reusing the existing allocation when capacity allows.
  // Entry values after the call are unspecified (retained prefix keeps old
  // contents; any grown suffix is zero) — callers must overwrite or zero.
  // This is what lets reused scratch buffers run a training step with O(1)
  // allocator calls.
  void SetShape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  // In-place element-wise accumulation: *this += other. Shapes must match.
  void Add(const Matrix& other);
  // *this += scale * other.
  void AddScaled(const Matrix& other, float scale);
  // *this *= scale.
  void Scale(float scale);

  // Fills with samples from U(-bound, bound).
  void FillUniform(Rng& rng, float bound);

  // Sum of all entries, accumulated in double.
  float Sum() const;

  // Matrix product (rows_ x cols_) * (other.rows_ x other.cols_).
  Matrix MatMul(const Matrix& other) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

// ---- GEMM kernels ----
//
// Every kernel below runs a rung of the ISA ladder (src/nn/simd/dispatch.h)
// and keeps the per-element accumulation order of a naive i-k-j triple loop:
// blocking and vector lanes span only independent output elements, never the
// reduction dimension, so in the default mode results are bit-identical to
// the reference kernels (floating-point addition is not associative;
// reassociating over k would change low bits). The one intentional
// difference is that the dense path does not skip `a == 0.0f` entries: the
// branch costs more than the multiply on dense data, and `x + 0*y == x` for
// every finite x (a 0-row can flip +0 to -0, which still compares equal).

// out = a * b, reusing out's storage when capacity allows.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out);
// out += a^T * b.
void AccumulateATransposeB(const Matrix& a, const Matrix& b, Matrix& out);
// out += a * b^T.
void AccumulateABTranspose(const Matrix& a, const Matrix& b, Matrix& out);

// ---- Fused element-wise helpers (AXPY-style) ----
// One rounding per element on every rung, so every mode runs them on the
// active rung. out is reshaped to a's shape, so it may be a or b itself (an
// in-place update): each element is read before it is written.
// out = a + b.
void AddInto(const Matrix& a, const Matrix& b, Matrix& out);
// out = a + scale * b.
void AddScaledInto(const Matrix& a, const Matrix& b, float scale, Matrix& out);
// out = a . b (element-wise).
void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out);

// ---- Kernel backend selection ----
// kTiled (the default) is the exact mode. Every kernel but the GEMV is
// exact on every rung and runs on the active one: mat-mat MatMulInto,
// AccumulateATransposeB, AccumulateABTranspose and the element-wise
// helpers. The GEMV (m == 1) runs on the scalar rung, because the vector
// rungs reduce it across lanes and are only ULP-bounded. kSimd differs from
// kTiled only there: it runs the GEMV on the active rung too (faster, not
// bit-exact, opt-in). kReference dispatches the three GEMM entry points to
// the pre-tiling naive kernels (kept verbatim in the deeprest::reference
// namespace), so bench_kernels can measure an honest before/after on one
// binary and tests can bound the (zero-sign-only) deviation. Global, not
// thread-local: flip it only in single-threaded setup code.
enum class KernelMode { kTiled, kReference, kSimd };
void SetKernelMode(KernelMode mode);
KernelMode GetKernelMode();

namespace reference {
// Pre-optimization kernels, preserved for benchmarking and tolerance tests.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out);
void AccumulateATransposeB(const Matrix& a, const Matrix& b, Matrix& out);
void AccumulateABTranspose(const Matrix& a, const Matrix& b, Matrix& out);
}  // namespace reference

}  // namespace deeprest

#endif  // SRC_NN_MATRIX_H_

#include "src/nn/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"

namespace deeprest {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) {
    return Matrix();
  }
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) {
      m.At(r, c) = rows[r][c];
    }
  }
  return m;
}

Matrix Matrix::Column(const std::vector<float>& values) {
  Matrix m(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) {
    m[i] = values[i];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    m.At(i, i) = 1.0f;
  }
  return m;
}

void Matrix::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::Add(const Matrix& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Matrix::AddScaled(const Matrix& other, float scale) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Matrix::Scale(float scale) {
  for (auto& v : data_) {
    v *= scale;
  }
}

void Matrix::FillUniform(Rng& rng, float bound) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
}

void Matrix::FillGaussian(Rng& rng, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
}

float Matrix::Norm() const {
  double acc = 0.0;
  for (float v : data_) {
    acc += static_cast<double>(v) * v;
  }
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::Sum() const {
  double acc = 0.0;
  for (float v : data_) {
    acc += v;
  }
  return static_cast<float>(acc);
}

float Matrix::Max() const {
  float best = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) {
    best = std::max(best, v);
  }
  return best;
}

float Matrix::Min() const {
  float best = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) {
    best = std::min(best, v);
  }
  return best;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(*this, other, out);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out.At(c, r) = At(r, c);
    }
  }
  return out;
}

std::string Matrix::DebugString() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_; ++r) {
    if (r > 0) {
      os << "; ";
    }
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) {
        os << " ";
      }
      os << At(r, c);
    }
  }
  os << "]";
  return os.str();
}

// ---- Kernel backend selection ----

namespace {
std::atomic<int> g_kernel_mode{static_cast<int>(KernelMode::kTiled)};
}  // namespace

void SetKernelMode(KernelMode mode) {
  g_kernel_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

KernelMode GetKernelMode() {
  return static_cast<KernelMode>(g_kernel_mode.load(std::memory_order_relaxed));
}

// ---- Reference (pre-tiling) kernels ----

namespace reference {

void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  out.SetShape(a.rows(), b.cols());
  out.Zero();
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  // i-k-j loop order keeps the inner loop sequential over both b and out.
  for (size_t i = 0; i < n; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = a.At(i, kk);
      if (aik == 0.0f) {
        continue;
      }
      const float* brow = b.data() + kk * m;
      float* orow = out.data() + i * m;
      for (size_t j = 0; j < m; ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
}

void AccumulateATransposeB(const Matrix& a, const Matrix& b, Matrix& out) {
  // out (a.cols x b.cols) += a^T * b, where a is (n x p), b is (n x q).
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  const size_t n = a.rows();
  const size_t p = a.cols();
  const size_t q = b.cols();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.data() + i * p;
    const float* brow = b.data() + i * q;
    for (size_t r = 0; r < p; ++r) {
      const float ar = arow[r];
      if (ar == 0.0f) {
        continue;
      }
      float* orow = out.data() + r * q;
      for (size_t c = 0; c < q; ++c) {
        orow[c] += ar * brow[c];
      }
    }
  }
}

void AccumulateABTranspose(const Matrix& a, const Matrix& b, Matrix& out) {
  // out (a.rows x b.rows) += a * b^T, where a is (n x k), b is (m x k).
  assert(a.cols() == b.cols());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.data() + i * k;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = b.data() + j * k;
      double acc = 0.0;
      for (size_t c = 0; c < k; ++c) {
        acc += static_cast<double>(arow[c]) * brow[c];
      }
      out.At(i, j) += static_cast<float>(acc);
    }
  }
}

}  // namespace reference

// ---- Tiled kernels ----
//
// Blocking is only over independent output rows/columns; every output element
// still sees its k-terms in ascending order, so results match the reference
// kernels bit for bit (see matrix.h). The mat-vec and accumulate kernels use
// four-way row blocks so the compiler gets independent accumulator chains to
// vectorize and hide FP latency behind; mat-mat products go to the ISA ladder.

void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  const KernelMode mode = GetKernelMode();
  if (mode == KernelMode::kReference) {
    reference::MatMulInto(a, b, out);
    return;
  }
  out.SetShape(a.rows(), b.cols());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  const float* A = a.data();
  const float* B = b.data();
  float* O = out.data();
  if (m != 1 || mode == KernelMode::kSimd) {
    // Mat-mat runs on the ISA ladder in every mode: each rung's mat-mat
    // kernel keeps every output element an ascending-k chain of separately
    // rounded multiplies and adds starting from 0, so it is the exact
    // product (simd_kernels_test.cc checks every rung against a plain loop).
    // Only kSimd also sends the GEMV there, where the rungs reduce across
    // lanes.
    simd::MatMul(A, B, O, n, k, m);
    return;
  }
  // Mat-vec: one register accumulator per output row, four rows at a time.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* a0 = A + (i + 0) * k;
    const float* a1 = A + (i + 1) * k;
    const float* a2 = A + (i + 2) * k;
    const float* a3 = A + (i + 3) * k;
    float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
    for (size_t c = 0; c < k; ++c) {
      const float bv = B[c];
      acc0 += a0[c] * bv;
      acc1 += a1[c] * bv;
      acc2 += a2[c] * bv;
      acc3 += a3[c] * bv;
    }
    O[i + 0] = acc0;
    O[i + 1] = acc1;
    O[i + 2] = acc2;
    O[i + 3] = acc3;
  }
  for (; i < n; ++i) {
    const float* arow = A + i * k;
    float acc = 0.0f;
    for (size_t c = 0; c < k; ++c) {
      acc += arow[c] * B[c];
    }
    O[i] = acc;
  }
}

void MatMulIntoSkipZeros(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  out.SetShape(a.rows(), b.cols());
  out.Zero();
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = out.data() + i * m;
    for (size_t c = 0; c < k; ++c) {
      const float av = arow[c];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b.data() + c * m;
      for (size_t j = 0; j < m; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

void AccumulateATransposeB(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  const KernelMode mode = GetKernelMode();
  if (mode == KernelMode::kReference) {
    reference::AccumulateATransposeB(a, b, out);
    return;
  }
  if (mode == KernelMode::kSimd) {
    simd::AccumulateATransposeB(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
    return;
  }
  const size_t n = a.rows();
  const size_t p = a.cols();
  const size_t q = b.cols();
  const float* A = a.data();
  const float* B = b.data();
  float* O = out.data();
  if (q == 1) {
    // out (p x 1) += a^T * b: one accumulator per output row. The registers
    // are seeded from (and stored back to) `out` so the rounding sequence per
    // element is exactly the reference kernel's out[r] += a(i,r)*b(i) chain.
    size_t r = 0;
    for (; r + 4 <= p; r += 4) {
      float acc0 = O[r + 0], acc1 = O[r + 1], acc2 = O[r + 2], acc3 = O[r + 3];
      for (size_t i = 0; i < n; ++i) {
        const float bv = B[i];
        const float* arow = A + i * p + r;
        acc0 += arow[0] * bv;
        acc1 += arow[1] * bv;
        acc2 += arow[2] * bv;
        acc3 += arow[3] * bv;
      }
      O[r + 0] = acc0;
      O[r + 1] = acc1;
      O[r + 2] = acc2;
      O[r + 3] = acc3;
    }
    for (; r < p; ++r) {
      float acc = O[r];
      for (size_t i = 0; i < n; ++i) {
        acc += A[i * p + r] * B[i];
      }
      O[r] = acc;
    }
    return;
  }
  size_t r = 0;
  for (; r + 4 <= p; r += 4) {
    float* o0 = O + (r + 0) * q;
    float* o1 = O + (r + 1) * q;
    float* o2 = O + (r + 2) * q;
    float* o3 = O + (r + 3) * q;
    for (size_t i = 0; i < n; ++i) {
      const float* arow = A + i * p + r;
      const float f0 = arow[0];
      const float f1 = arow[1];
      const float f2 = arow[2];
      const float f3 = arow[3];
      const float* brow = B + i * q;
      for (size_t c = 0; c < q; ++c) {
        const float bv = brow[c];
        o0[c] += f0 * bv;
        o1[c] += f1 * bv;
        o2[c] += f2 * bv;
        o3[c] += f3 * bv;
      }
    }
  }
  for (; r < p; ++r) {
    float* orow = O + r * q;
    for (size_t i = 0; i < n; ++i) {
      const float ar = A[i * p + r];
      const float* brow = B + i * q;
      for (size_t c = 0; c < q; ++c) {
        orow[c] += ar * brow[c];
      }
    }
  }
}

void AccumulateABTranspose(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  const KernelMode mode = GetKernelMode();
  if (mode == KernelMode::kReference) {
    reference::AccumulateABTranspose(a, b, out);
    return;
  }
  if (mode == KernelMode::kSimd) {
    simd::AccumulateABTranspose(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows());
    return;
  }
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.rows();
  const float* A = a.data();
  const float* B = b.data();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = A + i * k;
    float* orow = out.data() + i * m;
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const float* b0 = B + (j + 0) * k;
      const float* b1 = B + (j + 1) * k;
      const float* b2 = B + (j + 2) * k;
      const float* b3 = B + (j + 3) * k;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (size_t c = 0; c < k; ++c) {
        const double av = arow[c];
        acc0 += av * b0[c];
        acc1 += av * b1[c];
        acc2 += av * b2[c];
        acc3 += av * b3[c];
      }
      orow[j + 0] += static_cast<float>(acc0);
      orow[j + 1] += static_cast<float>(acc1);
      orow[j + 2] += static_cast<float>(acc2);
      orow[j + 3] += static_cast<float>(acc3);
    }
    for (; j < m; ++j) {
      const float* brow = B + j * k;
      double acc = 0.0;
      for (size_t c = 0; c < k; ++c) {
        acc += static_cast<double>(arow[c]) * brow[c];
      }
      orow[j] += static_cast<float>(acc);
    }
  }
}

// ---- Fused element-wise helpers ----

// The vectorized element-wise kernels compute one rounding per element in
// the same order as these loops, so routing through simd in kSimd mode is
// bit-exact; the branch exists purely for speed on wide activations.

void AddInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  if (GetKernelMode() == KernelMode::kSimd) {
    simd::Add(av, bv, ov, a.size());
    return;
  }
  for (size_t i = 0, e = a.size(); i < e; ++i) {
    ov[i] = av[i] + bv[i];
  }
}

void AddScaledInto(const Matrix& a, const Matrix& b, float scale, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  if (GetKernelMode() == KernelMode::kSimd) {
    simd::Axpby(av, bv, scale, ov, a.size());
    return;
  }
  for (size_t i = 0, e = a.size(); i < e; ++i) {
    ov[i] = av[i] + scale * bv[i];
  }
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  if (GetKernelMode() == KernelMode::kSimd) {
    simd::Hadamard(av, bv, ov, a.size());
    return;
  }
  for (size_t i = 0, e = a.size(); i < e; ++i) {
    ov[i] = av[i] * bv[i];
  }
}

}  // namespace deeprest

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

// ---- Kernel dispatch ----
//
// No kernel loop lives here: outside kReference, every entry point runs a
// rung of the ISA ladder (src/nn/simd/dispatch.h). Every kernel but the
// GEMV is exact on every rung, so it runs on the active one in every mode.
// The GEMV (m == 1) reduces across lanes on the vector rungs, so the default
// mode runs it on the scalar rung, whose reduction is sequential; kSimd
// sends it to the active rung too.

void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  const KernelMode mode = GetKernelMode();
  if (mode == KernelMode::kReference) {
    reference::MatMulInto(a, b, out);
    return;
  }
  out.SetShape(a.rows(), b.cols());
  if (b.cols() == 1 && mode == KernelMode::kTiled) {
    simd::ScalarGemv(a.data(), b.data(), out.data(), a.rows(), a.cols());
    return;
  }
  simd::MatMul(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void AccumulateATransposeB(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  if (GetKernelMode() == KernelMode::kReference) {
    reference::AccumulateATransposeB(a, b, out);
    return;
  }
  simd::AccumulateATransposeB(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void AccumulateABTranspose(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  if (GetKernelMode() == KernelMode::kReference) {
    reference::AccumulateABTranspose(a, b, out);
    return;
  }
  simd::AccumulateABTranspose(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows());
}

void AddInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  simd::Add(a.data(), b.data(), out.data(), a.size());
}

void AddScaledInto(const Matrix& a, const Matrix& b, float scale, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  simd::Axpby(a.data(), b.data(), scale, out.data(), a.size());
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.SameShape(b));
  out.SetShape(a.rows(), a.cols());
  simd::Hadamard(a.data(), b.data(), out.data(), a.size());
}

}  // namespace deeprest

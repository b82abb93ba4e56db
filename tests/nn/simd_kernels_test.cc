// SIMD kernel contract tests, per ISA rung.
//
// The dispatch layer (src/nn/simd/dispatch.h) promises two tiers of numeric
// fidelity, and these tests pin both on EVERY rung the host can execute:
//
//   * BIT-IDENTICAL to plain C++: every kernel but the GEMV. The mat-mat
//     MatMul path, AccumulateATransposeB (every remainder of its 4-row
//     blocks and column tiles), AccumulateABTranspose (k == 1 and k > 1,
//     including the attention backward's per-window d_alpha shapes, every
//     column tail and row-block remainder, and -0 products), the
//     element-wise kernels (Add, Axpby, Hadamard) and AdamStep (five
//     consecutive steps with zero and negative gradients) and LaneAccumulate
//     (every lane tail, +-0 seeds, a chain that reassociation would change)
//     keep each output element's operations in the order of a plain loop
//     written in this file, with one rounding per multiply, add, divide and
//     square root — vector width changes which elements compute together,
//     never how one element rounds. Each is compared with memcmp.
//   * BIT-IDENTICAL to the scalar bodies (src/nn/simd/nonlinear.h): Sigmoid
//     and Tanh on every 257th bit pattern plus each branch threshold of the
//     bodies, and, in a disabled test that tools/ci.sh runs, on all 2^32
//     inputs.
//   * ULP-BOUNDED: the m == 1 GEMV path reassociates across lanes, so it is
//     compared against an exact double-precision oracle under the standard
//     reassociation bound |simd - exact| <= (k + 8) * eps * sum|terms|.
//
// kScalar is held to the stricter standard for the GEMV too — it reduces
// sequentially, and the default (kTiled) mode runs exactly that kernel
// whatever rung is active.
//
// Every bit-exactness oracle is a loop written out in this file: the
// default-mode Matrix entry points themselves run the ladder, so comparing a
// rung against them would compare the ladder with itself.
//
// Also here: the KernelMode round-trip property, ForceIsa ladder clamping,
// and SelectIsaFromSpec parsing.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/matrix.h"
#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"
#include "src/nn/simd/nonlinear.h"

namespace deeprest {
namespace {

const simd::Isa kAllIsas[] = {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> out;
  for (simd::Isa isa : kAllIsas) {
    if (simd::IsaSupported(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// a is (n x k), b is (k x m): covers 1x1, vector-lane remainders around the
// 8/16-wide loops, the 4-row GEMV blocks, and shapes larger than one AVX-512
// register on every axis. The second block is the packed inference step's
// shapes (serving model: D = 69, H = 8, E = 76): gates plus bypass at batch
// 1 and 4 (3H+3 = 27 columns, 39 for H = 12), attention at batch 1 and 3
// (B·H = 8, 24), and the head and [Uz;Uk] products at small H.
struct Shape {
  size_t n, k, m;
};
const Shape kMatShapes[] = {{1, 1, 1},    {1, 7, 1},    {4, 8, 1},  {5, 9, 3},
                            {3, 33, 2},   {16, 256, 1}, {13, 13, 13},
                            {12, 12, 16}, {32, 17, 6},  {2, 1, 2},  {7, 64, 31},
                            {1, 100, 1},  {9, 40, 1},
                            {1, 69, 27},  {4, 69, 39},  {76, 76, 8}, {76, 76, 24},
                            {3, 16, 3},   {2, 8, 16}};

// The exact product every mat-mat kernel must reproduce: per output element,
// an ascending-k chain of separately rounded multiplies and adds from 0.
Matrix AscendingKProduct(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t c = 0; c < a.cols(); ++c) {
        acc += a.At(i, c) * b.At(c, j);
      }
      out.At(i, j) = acc;
    }
  }
  return out;
}

// out(p x q) = seed + a(n x p)^T * b(n x q), each element an ascending-i
// chain of separately rounded multiplies and adds seeded from `seed`: what
// every rung's AccumulateATransposeB must reproduce.
Matrix AscendingATransposeB(const Matrix& a, const Matrix& b, const Matrix& seed) {
  Matrix out = seed;
  for (size_t r = 0; r < a.cols(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) {
      float acc = seed.At(r, c);
      for (size_t i = 0; i < a.rows(); ++i) {
        acc += a.At(i, r) * b.At(i, c);
      }
      out.At(r, c) = acc;
    }
  }
  return out;
}

// out(n x m) = seed + a(n x k) * b(m x k)^T with each dot product summed in
// double in ascending-k order from +0, then rounded once and added: what
// every rung's AccumulateABTranspose must reproduce.
Matrix SequentialABTranspose(const Matrix& a, const Matrix& b, const Matrix& seed) {
  Matrix out = seed;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (size_t c = 0; c < a.cols(); ++c) {
        acc += static_cast<double>(a.At(i, c)) * b.At(j, c);
      }
      out.At(i, j) += static_cast<float>(acc);
    }
  }
  return out;
}

// Restores global dispatch state no matter how a test exits.
class SimdKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::ResetIsa();
    SetKernelMode(KernelMode::kTiled);
  }
};

TEST_F(SimdKernelsTest, MatMatMatMulBitIdenticalToAscendingKLoopOnEveryIsa) {
  Rng rng(301);
  SetKernelMode(KernelMode::kTiled);
  for (const Shape& s : kMatShapes) {
    if (s.m == 1) {
      continue;  // GEMV path is ULP-bounded, tested below
    }
    Matrix a(s.n, s.k), b(s.k, s.m);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    const Matrix exact = AscendingKProduct(a, b);
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out(s.n, s.m);
      simd::MatMul(a.data(), b.data(), out.data(), s.n, s.k, s.m);
      EXPECT_TRUE(BitIdentical(out, exact))
          << simd::IsaName(isa) << " " << s.n << "x" << s.k << "*" << s.k << "x" << s.m;
      // The default mode's MatMulInto runs this rung's kernel on mat-mat.
      Matrix via_mode;
      MatMulInto(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, exact))
          << "MatMulInto on " << simd::IsaName(isa) << " " << s.n << "x" << s.k << "*" << s.k
          << "x" << s.m;
    }
  }
}

TEST_F(SimdKernelsTest, GemvUlpBoundedOnEveryIsa) {
  Rng rng(302);
  for (const Shape& s : kMatShapes) {
    if (s.m != 1) {
      continue;
    }
    Matrix a(s.n, s.k), b(s.k, 1);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    // Exact oracle in double; the float results may reassociate lanes.
    std::vector<double> exact(s.n, 0.0);
    std::vector<double> term_mass(s.n, 0.0);
    for (size_t i = 0; i < s.n; ++i) {
      for (size_t c = 0; c < s.k; ++c) {
        const double t = static_cast<double>(a[i * s.k + c]) * b[c];
        exact[i] += t;
        term_mass[i] += std::fabs(t);
      }
    }
    const double eps = 1.1920929e-7;  // 2^-23
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out(s.n, 1);
      simd::MatMul(a.data(), b.data(), out.data(), s.n, s.k, 1);
      for (size_t i = 0; i < s.n; ++i) {
        const double bound = (static_cast<double>(s.k) + 8.0) * eps * term_mass[i] + 1e-12;
        EXPECT_LE(std::fabs(out[i] - exact[i]), bound)
            << simd::IsaName(isa) << " row " << i << " of " << s.n << "x" << s.k;
      }
    }
  }
}

// Shapes: the grid above as n = k, p = n, q = m, then p = 1..7 against
// q in {1, 15, 16, 17, 69} at n = 1 and 13: every remainder of the 4-row
// blocks, of the 8- and 16-wide column tiles and of the masked tail.
TEST_F(SimdKernelsTest, AccumulateATransposeBBitIdenticalToAscendingLoopOnEveryIsa) {
  Rng rng(303);
  SetKernelMode(KernelMode::kTiled);
  std::vector<Shape> shapes;  // (n, p, q): out(p x q) += a(n x p)^T * b(n x q)
  for (const Shape& s : kMatShapes) {
    shapes.push_back({s.k, s.n, s.m});
  }
  for (size_t n : {1u, 13u}) {
    for (size_t p = 1; p <= 7; ++p) {
      for (size_t q : {1u, 15u, 16u, 17u, 69u}) {
        shapes.push_back({n, p, q});
      }
    }
  }
  for (const Shape& s : shapes) {
    const size_t n = s.n, p = s.k, q = s.m;
    Matrix a(n, p), b(n, q), seed(p, q);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    seed.FillUniform(rng, 1.0f);
    const Matrix exact = AscendingATransposeB(a, b, seed);
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out = seed;
      simd::AccumulateATransposeB(a.data(), b.data(), out.data(), n, p, q);
      EXPECT_TRUE(BitIdentical(out, exact))
          << simd::IsaName(isa) << " n=" << n << " p=" << p << " q=" << q;
      // The default mode runs this rung's kernel.
      Matrix via_mode = seed;
      AccumulateATransposeB(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, exact))
          << "AccumulateATransposeB on " << simd::IsaName(isa) << " n=" << n << " p=" << p
          << " q=" << q;
    }
  }
}

// Every rung's k > 1 AccumulateABTranspose must reproduce the sequential
// double chain bit for bit, and the default mode runs it on the active rung.
// Shapes: the grid above, the attention backward's per-window d_alpha
// (E x H times E x H transposed, E = 76, H = 8 and 12), and column tails
// m in {1, 7, 9, 17} against row counts n in {1, 3, 5}. Random terms rarely
// show a reassociated double sum once it is rounded to float, so two
// elements pin the order instead:
//   * row 0 of A is -0, row 0 of B is positive and out(0, 0) is seeded -0,
//     so that element adds only -0 products to -0: it lands on +0 only if
//     its chain starts at +0;
//   * the first three terms of out(n-1, m-1) are 2^60, 1 and -2^60: the
//     ascending chain loses the 1 (2^60 + 1 rounds back to 2^60), while a
//     sum that pairs the two large terms first keeps it.
TEST_F(SimdKernelsTest, AccumulateABTransposeBitIdenticalToSequentialLoopOnEveryIsa) {
  Rng rng(304);
  SetKernelMode(KernelMode::kTiled);
  std::vector<Shape> shapes;  // (n, k, m): out(n x m) += a(n x k) * b(m x k)^T
  for (const Shape& s : kMatShapes) {
    shapes.push_back({s.n, s.m == 1 ? s.k : s.m, s.k});
  }
  shapes.push_back({76, 8, 76});
  shapes.push_back({76, 12, 76});
  for (size_t n : {1u, 3u, 5u}) {
    for (size_t m : {1u, 7u, 9u, 17u}) {
      shapes.push_back({n, 2, m});
      shapes.push_back({n, 12, m});
    }
  }
  for (const Shape& s : shapes) {
    Matrix a(s.n, s.k), b(s.m, s.k), seed(s.n, s.m);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    seed.FillUniform(rng, 1.0f);
    for (size_t c = 0; c < s.k; ++c) {
      a.At(0, c) = -0.0f;
      b.At(0, c) = std::fabs(b.At(0, c));
    }
    for (size_t j = 0; j < s.m; j += 2) {
      seed.At(0, j) = -0.0f;
    }
    if (s.n > 1 && s.k >= 3) {
      const float big = std::ldexp(1.0f, 30);
      const size_t i = s.n - 1, j = s.m - 1;
      a.At(i, 0) = big;
      a.At(i, 1) = 1.0f;
      a.At(i, 2) = -big;
      b.At(j, 0) = big;
      b.At(j, 1) = 1.0f;
      b.At(j, 2) = big;
    }
    const Matrix exact = SequentialABTranspose(a, b, seed);
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out = seed;
      simd::AccumulateABTranspose(a.data(), b.data(), out.data(), s.n, s.k, s.m);
      EXPECT_TRUE(BitIdentical(out, exact))
          << simd::IsaName(isa) << " " << s.n << "x" << s.k << " * (" << s.m << "x" << s.k
          << ")^T";
      Matrix via_mode = seed;
      AccumulateABTranspose(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, exact))
          << "AccumulateABTranspose on " << simd::IsaName(isa) << " " << s.n << "x" << s.k
          << " * (" << s.m << "x" << s.k << ")^T";
    }
  }
}

// The portable fallback reduces the GEMV sequentially, and the default mode
// runs exactly that kernel whatever rung is active: both must match the
// ascending loop bit for bit. The ci.sh simd-off leg (DEEPREST_SIMD=scalar)
// relies on the first half, training determinism on the second.
TEST_F(SimdKernelsTest, ScalarIsaAndDefaultModeGemvBitIdenticalToSequentialLoop) {
  Rng rng(305);
  SetKernelMode(KernelMode::kTiled);
  for (const Shape& s : kMatShapes) {
    Matrix a(s.n, s.k), b(s.k, 1);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    const Matrix gemv = AscendingKProduct(a, b);

    ASSERT_EQ(simd::ForceIsa(simd::Isa::kScalar), simd::Isa::kScalar);
    Matrix out(s.n, 1);
    simd::MatMul(a.data(), b.data(), out.data(), s.n, s.k, 1);
    EXPECT_TRUE(BitIdentical(out, gemv)) << "scalar gemv " << s.n << "x" << s.k;

    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix via_mode;
      MatMulInto(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, gemv))
          << "MatMulInto gemv on " << simd::IsaName(isa) << " " << s.n << "x" << s.k;
    }
  }
}

// A rank-1 update (k == 1) has no reduction, so every rung must reproduce
// the scalar rung bit for bit, including the zero signs its +0-seeded double
// accumulator settles (a -0 product added to a -0 entry leaves +0), and the
// default mode runs it on the active rung. Row 0 seeds -0 entries against
// -0 and +0 products; ragged m covers every vector-lane remainder.
TEST_F(SimdKernelsTest, RankOneAccumulateABTransposeBitIdenticalToScalarOnEveryIsa) {
  Rng rng(306);
  SetKernelMode(KernelMode::kTiled);
  for (size_t m = 1; m <= 40; ++m) {
    const size_t n = 2 + m % 3;
    Matrix a(n, 1), b(m, 1), seed(n, m);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    seed.FillUniform(rng, 1.0f);
    a[0] = -0.0f;
    a[1] = 0.0f;
    for (size_t j = 0; j < m; j += 2) {
      seed.At(0, j) = -0.0f;
      seed.At(1, j) = -0.0f;
      b[j] = j % 4 == 0 ? 0.0f : b[j];
    }
    const Matrix exact = SequentialABTranspose(a, b, seed);
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out = seed;
      simd::AccumulateABTranspose(a.data(), b.data(), out.data(), n, 1, m);
      EXPECT_TRUE(BitIdentical(out, exact)) << simd::IsaName(isa) << " n=" << n << " m=" << m;
      Matrix via_mode = seed;
      AccumulateABTranspose(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, exact))
          << "AccumulateABTranspose on " << simd::IsaName(isa) << " n=" << n << " m=" << m;
    }
  }
}

TEST_F(SimdKernelsTest, ElementwiseKernelsBitExactOnEveryIsa) {
  Rng rng(306);
  // Sizes straddling the 8- and 16-lane boundaries plus ragged tails.
  for (size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 1037u}) {
    Matrix a(1, n), b(1, n);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    const float scale = 0.37f;
    std::vector<float> add(n), axpby(n), had(n);
    for (size_t i = 0; i < n; ++i) {
      add[i] = a[i] + b[i];
      axpby[i] = a[i] + scale * b[i];
      had[i] = a[i] * b[i];
    }
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      std::vector<float> out(n);
      simd::Add(a.data(), b.data(), out.data(), n);
      EXPECT_EQ(std::memcmp(out.data(), add.data(), n * sizeof(float)), 0)
          << simd::IsaName(isa) << " Add n=" << n;
      simd::Axpby(a.data(), b.data(), scale, out.data(), n);
      EXPECT_EQ(std::memcmp(out.data(), axpby.data(), n * sizeof(float)), 0)
          << simd::IsaName(isa) << " Axpby n=" << n;
      simd::Hadamard(a.data(), b.data(), out.data(), n);
      EXPECT_EQ(std::memcmp(out.data(), had.data(), n * sizeof(float)), 0)
          << simd::IsaName(isa) << " Hadamard n=" << n;
    }
  }
}

// One Adam step as a plain loop, in AdamOptimizer's order.
void PlainAdamStep(const std::vector<float>& g, std::vector<float>& m, std::vector<float>& v,
                   std::vector<float>& value, const simd::AdamStepParams& p) {
  for (size_t i = 0; i < g.size(); ++i) {
    m[i] = p.beta1 * m[i] + (1.0f - p.beta1) * g[i];
    v[i] = p.beta2 * v[i] + (1.0f - p.beta2) * g[i] * g[i];
    const float m_hat = m[i] / p.bias1;
    const float v_hat = v[i] / p.bias2;
    value[i] -= p.learning_rate * m_hat / (std::sqrt(v_hat) + p.epsilon);
  }
}

// Five consecutive steps from zeroed moments, at sizes straddling the 8- and
// 16-lane boundaries. Every fourth gradient is zero (half of them -0) and the
// rest span both signs and three orders of magnitude, so the update sees
// zeros, sign flips and tiny second moments.
TEST_F(SimdKernelsTest, AdamStepBitIdenticalToPlainLoopOnEveryIsa) {
  for (size_t n : {1u, 7u, 15u, 16u, 17u, 69u, 1000u}) {
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Rng rng(312 + n);
      std::vector<float> value(n);
      for (size_t i = 0; i < n; ++i) {
        value[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      std::vector<float> expected_value = value;
      std::vector<float> m(n, 0.0f), v(n, 0.0f), expected_m(n, 0.0f), expected_v(n, 0.0f);
      std::vector<float> g(n);
      simd::AdamStepParams params = {
          .beta1 = 0.9f, .beta2 = 0.999f, .learning_rate = 0.01f, .epsilon = 1e-8f};
      for (int step = 1; step <= 5; ++step) {
        for (size_t i = 0; i < n; ++i) {
          const float scale = i % 3 == 0 ? 1e-3f : 1.0f;
          g[i] = i % 4 == 0 ? (i % 8 == 0 ? 0.0f : -0.0f)
                            : scale * static_cast<float>(rng.Uniform(-1.0, 1.0));
        }
        params.bias1 = 1.0f - std::pow(params.beta1, static_cast<float>(step));
        params.bias2 = 1.0f - std::pow(params.beta2, static_cast<float>(step));
        PlainAdamStep(g, expected_m, expected_v, expected_value, params);
        simd::AdamStep(g.data(), m.data(), v.data(), value.data(), n, params);
        EXPECT_EQ(std::memcmp(m.data(), expected_m.data(), n * sizeof(float)), 0)
            << simd::IsaName(isa) << " m, n=" << n << " step " << step;
        EXPECT_EQ(std::memcmp(v.data(), expected_v.data(), n * sizeof(float)), 0)
            << simd::IsaName(isa) << " v, n=" << n << " step " << step;
        EXPECT_EQ(std::memcmp(value.data(), expected_value.data(), n * sizeof(float)), 0)
            << simd::IsaName(isa) << " value, n=" << n << " step " << step;
      }
    }
  }
}

TEST_F(SimdKernelsTest, AxpbyIsInPlaceSafe) {
  // Accumulating with out == a is allowed: lanes never overlap, so the
  // in-place call must match the out-of-place one bit-for-bit.
  Rng rng(307);
  for (simd::Isa isa : SupportedIsas()) {
    ASSERT_EQ(simd::ForceIsa(isa), isa);
    Matrix a(1, 100), b(1, 100);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    std::vector<float> separate(100);
    simd::Axpby(a.data(), b.data(), 0.5f, separate.data(), 100);
    simd::Axpby(a.data(), b.data(), 0.5f, a.data(), 100);  // in place
    EXPECT_EQ(std::memcmp(a.data(), separate.data(), 100 * sizeof(float)), 0)
        << simd::IsaName(isa);
  }
}

// ---- owned nonlinearities ----

// Bit patterns where the scalar bodies change branch, with their neighbours,
// in both signs: tanhf's (0x24000000, 0x3f800000, 0x41b00000), expm1f's as
// they are (0x33000000, 0x3eb17218, 0x3f851592, 0x4195b844) and halved, since
// tanh passes expm1 2|x|, and expf's (88, its overflow and its underflow
// bound; sigmoid passes exp -x, hence both signs). Plus +-0, the smallest
// and largest subnormals, the smallest normal, +-inf and NaNs quiet and
// signalling.
std::vector<float> NonlinearityEdgeInputs() {
  std::vector<uint32_t> bits = {0x00000001, 0x00000002, 0x007fffff, 0x00800000,
                                0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff};
  const uint32_t thresholds[] = {0x24000000, 0x3f800000, 0x41b00000, 0x33000000,
                                 0x3eb17218, 0x3f851592, 0x4195b844,
                                 simd::FloatBits(88.0f), simd::FloatBits(0x1.62e42ep6f),
                                 simd::FloatBits(0x1.9fe368p6f)};
  for (uint32_t t : thresholds) {
    for (uint32_t u : {t, t - 0x00800000}) {  // t, and t / 2 for expm1's thresholds
      bits.insert(bits.end(), {u - 1, u, u + 1});
    }
  }
  std::vector<float> out = {0.0f, -0.0f};
  for (uint32_t u : bits) {
    out.push_back(simd::BitsFloat(u));
    out.push_back(simd::BitsFloat(u | 0x80000000u));
  }
  return out;
}

// Runs `kernel` over `in` in consecutive calls whose lengths cycle through
// {1, 15, 16, 17, 608}: every vector width's tail and one window's E·H at
// H = 8.
template <typename Kernel>
std::vector<float> RunInCalls(Kernel kernel, const std::vector<float>& in) {
  static const size_t kLengths[] = {1, 15, 16, 17, 608};
  std::vector<float> out(in.size());
  for (size_t at = 0, call = 0; at < in.size(); ++call) {
    const size_t n = std::min(kLengths[call % 5], in.size() - at);
    kernel(in.data() + at, out.data() + at, n);
    at += n;
  }
  return out;
}

// Every rung's Sigmoid and Tanh return the scalar bodies' bits (nonlinear.h)
// on every 257th bit pattern (~16.7M floats, every exponent and sign) and
// on the edge set, in place and out of place.
TEST_F(SimdKernelsTest, SigmoidTanhBitIdenticalToBodiesOnEveryIsa) {
  std::vector<float> in = NonlinearityEdgeInputs();
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 257) {
    in.push_back(simd::BitsFloat(static_cast<uint32_t>(u)));
  }
  std::vector<float> sigmoid(in.size()), tanh(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    sigmoid[i] = simd::SigmoidBody(in[i]);
    tanh[i] = simd::TanhfBody(in[i]);
  }
  const size_t bytes = in.size() * sizeof(float);
  for (simd::Isa isa : SupportedIsas()) {
    ASSERT_EQ(simd::ForceIsa(isa), isa);
    EXPECT_EQ(std::memcmp(RunInCalls(simd::Sigmoid, in).data(), sigmoid.data(), bytes), 0)
        << simd::IsaName(isa) << " Sigmoid";
    EXPECT_EQ(std::memcmp(RunInCalls(simd::Tanh, in).data(), tanh.data(), bytes), 0)
        << simd::IsaName(isa) << " Tanh";
    std::vector<float> in_place(in.begin(), in.begin() + 4096);
    simd::Sigmoid(in_place.data(), in_place.data(), in_place.size());
    EXPECT_EQ(std::memcmp(in_place.data(), sigmoid.data(), in_place.size() * sizeof(float)), 0)
        << simd::IsaName(isa) << " Sigmoid in place";
    in_place.assign(in.begin(), in.begin() + 4096);
    simd::Tanh(in_place.data(), in_place.data(), in_place.size());
    EXPECT_EQ(std::memcmp(in_place.data(), tanh.data(), in_place.size() * sizeof(float)), 0)
        << simd::IsaName(isa) << " Tanh in place";
  }
}

// The same check over all 2^32 inputs on 4 threads, per vector rung (the
// scalar rung is the bodies' own loop). Disabled in tier-1 (tens of seconds
// per rung); tools/ci.sh leg 3 runs it.
TEST_F(SimdKernelsTest, DISABLED_SigmoidTanhExhaustiveOnEveryIsa) {
  constexpr unsigned kThreads = 4;
  constexpr size_t kChunk = size_t{1} << 16;
  for (simd::Isa isa : SupportedIsas()) {
    if (isa == simd::Isa::kScalar) {
      continue;
    }
    ASSERT_EQ(simd::ForceIsa(isa), isa);
    std::vector<uint64_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        std::vector<float> in(kChunk), sigmoid(kChunk), tanh(kChunk);
        for (uint64_t base = w * kChunk; base < (uint64_t{1} << 32); base += kThreads * kChunk) {
          for (size_t i = 0; i < kChunk; ++i) {
            in[i] = simd::BitsFloat(static_cast<uint32_t>(base + i));
          }
          simd::Sigmoid(in.data(), sigmoid.data(), kChunk);
          simd::Tanh(in.data(), tanh.data(), kChunk);
          for (size_t i = 0; i < kChunk; ++i) {
            const float x = in[i];
            mismatches[w] += simd::FloatBits(sigmoid[i]) != simd::FloatBits(simd::SigmoidBody(x));
            mismatches[w] += simd::FloatBits(tanh[i]) != simd::FloatBits(simd::TanhfBody(x));
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    uint64_t total = 0;
    for (uint64_t count : mismatches) {
      total += count;
    }
    EXPECT_EQ(total, 0u) << simd::IsaName(isa);
  }
}

// LaneAccumulate against a per-lane loop written here: out(j, l) seeded
// with +0, -0 or a random value, then a[c][l] * w[c][j][l] added in
// ascending c. In every (j, l) with l % 5 == 4 and k >= 3, the first three
// products are 2^24, 1 and -2^24: the ascending chain loses the 1, a
// reassociated one keeps it. The random products are inexact, so a fused
// multiply-add rounds them differently. k, m and L cover the forward's
// shapes (k = H in {8, 12}, m in {H, 2H}) and every lane tail.
TEST_F(SimdKernelsTest, LaneAccumulateBitIdenticalToPerLaneLoopOnEveryIsa) {
  Rng rng(313);
  for (size_t k : {1u, 8u, 12u}) {
    for (size_t m : {1u, 3u, 16u, 24u, 36u}) {
      for (size_t lanes : {16u, 80u, 7u, 21u}) {
        std::vector<float> a(k * lanes), w(k * m * lanes), seed(m * lanes);
        for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        for (float& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        for (size_t i = 0; i < seed.size(); ++i) {
          seed[i] = i % 3 == 0 ? 0.0f
                               : (i % 3 == 1 ? -0.0f : static_cast<float>(rng.Uniform(-1.0, 1.0)));
        }
        for (size_t l = 4; k >= 3 && l < lanes; l += 5) {
          const float big = std::ldexp(1.0f, 12);
          a[0 * lanes + l] = big;
          a[1 * lanes + l] = 1.0f;
          a[2 * lanes + l] = -big;
          for (size_t j = 0; j < m; ++j) {
            w[(0 * m + j) * lanes + l] = big;
            w[(1 * m + j) * lanes + l] = 1.0f;
            w[(2 * m + j) * lanes + l] = big;
          }
        }
        std::vector<float> exact = seed;
        for (size_t j = 0; j < m; ++j) {
          for (size_t l = 0; l < lanes; ++l) {
            float acc = seed[j * lanes + l];
            for (size_t c = 0; c < k; ++c) {
              acc += a[c * lanes + l] * w[(c * m + j) * lanes + l];
            }
            exact[j * lanes + l] = acc;
          }
        }
        for (simd::Isa isa : SupportedIsas()) {
          ASSERT_EQ(simd::ForceIsa(isa), isa);
          std::vector<float> out = seed;
          simd::LaneAccumulate(a.data(), w.data(), out.data(), k, m, lanes);
          EXPECT_EQ(std::memcmp(out.data(), exact.data(), out.size() * sizeof(float)), 0)
              << simd::IsaName(isa) << " k=" << k << " m=" << m << " lanes=" << lanes;
        }
      }
    }
  }
}

// ---- mode / dispatch state machine ----

TEST_F(SimdKernelsTest, KernelModeRoundTripsAllModes) {
  for (KernelMode mode :
       {KernelMode::kReference, KernelMode::kSimd, KernelMode::kTiled}) {
    SetKernelMode(mode);
    EXPECT_EQ(GetKernelMode(), mode);
  }
  // And the setting is sticky across unrelated kernel invocations.
  SetKernelMode(KernelMode::kSimd);
  Rng rng(309);
  Matrix a(3, 5), b(5, 2), out;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  MatMulInto(a, b, out);
  EXPECT_EQ(GetKernelMode(), KernelMode::kSimd);
}

TEST_F(SimdKernelsTest, SimdModeRoutesMatMulThroughDispatch) {
  Rng rng(310);
  Matrix a(6, 9), b(9, 4), via_mode;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  SetKernelMode(KernelMode::kSimd);
  MatMulInto(a, b, via_mode);
  Matrix direct(6, 4);
  simd::MatMul(a.data(), b.data(), direct.data(), 6, 9, 4);
  EXPECT_TRUE(BitIdentical(via_mode, direct));
}

TEST_F(SimdKernelsTest, ForceIsaAlwaysLandsOnASupportedRung) {
  for (simd::Isa wanted : kAllIsas) {
    const simd::Isa got = simd::ForceIsa(wanted);
    EXPECT_TRUE(simd::IsaSupported(got)) << simd::IsaName(wanted);
    EXPECT_EQ(got, simd::ActiveIsa()) << simd::IsaName(wanted);
    if (simd::IsaSupported(wanted)) {
      EXPECT_EQ(got, wanted) << simd::IsaName(wanted);
    }
  }
  // kScalar is the ladder floor: it must always be grantable verbatim.
  EXPECT_EQ(simd::ForceIsa(simd::Isa::kScalar), simd::Isa::kScalar);
#if defined(__x86_64__) || defined(__i386__)
  // Cross-architecture request: NEON on x86 falls cleanly to the floor.
  EXPECT_EQ(simd::ForceIsa(simd::Isa::kNeon), simd::Isa::kScalar);
#endif
}

TEST_F(SimdKernelsTest, SelectIsaFromSpecParsesAndClamps) {
  EXPECT_TRUE(simd::SelectIsaFromSpec("scalar"));
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::SelectIsaFromSpec("auto"));
  EXPECT_EQ(simd::ActiveIsa(), simd::BestSupportedIsa());
  // Named rungs clamp down the ladder rather than failing.
  EXPECT_TRUE(simd::SelectIsaFromSpec("avx512"));
  EXPECT_TRUE(simd::IsaSupported(simd::ActiveIsa()));
  // Unknown specs leave the selection untouched.
  const simd::Isa before = simd::ActiveIsa();
  EXPECT_FALSE(simd::SelectIsaFromSpec("quantum"));
  EXPECT_EQ(simd::ActiveIsa(), before);
  EXPECT_FALSE(simd::SelectIsaFromSpec(""));
  EXPECT_EQ(simd::ActiveIsa(), before);
}

TEST_F(SimdKernelsTest, ResetIsaReturnsToDefault) {
  simd::ForceIsa(simd::Isa::kScalar);
  ASSERT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::ResetIsa();
  // No DEEPREST_SIMD in the test environment -> best supported rung. (When
  // CI sets DEEPREST_SIMD=scalar, best == scalar is exactly what it pins.)
  const char* env = std::getenv("DEEPREST_SIMD");
  if (env == nullptr || std::string(env) == "auto") {
    EXPECT_EQ(simd::ActiveIsa(), simd::BestSupportedIsa());
  } else {
    EXPECT_TRUE(simd::IsaSupported(simd::ActiveIsa()));
  }
}

}  // namespace
}  // namespace deeprest

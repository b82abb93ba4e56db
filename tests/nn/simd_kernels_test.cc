// SIMD kernel contract tests, per ISA rung.
//
// The dispatch layer (src/nn/simd/dispatch.h) promises two tiers of numeric
// fidelity, and these tests pin both on EVERY rung the host can execute:
//
//   * BIT-IDENTICAL to plain C++: the mat-mat MatMul path,
//     AccumulateATransposeB, and all element-wise kernels (Add, Axpby,
//     Hadamard) keep each output element's reduction in ascending-k
//     order with one rounding per multiply and per add — vector width changes
//     which elements compute together, never how one element rounds.
//   * ULP-BOUNDED: the m == 1 GEMV path and AccumulateABTranspose's k > 1
//     dot products reassociate across lanes, so they are compared against an
//     exact double-precision oracle under the standard reassociation bound
//     |simd - exact| <= (k + 8) * eps * sum|terms|. The rank-1 (k == 1)
//     AccumulateABTranspose has no reduction and is bit-identical to the
//     scalar rung on every rung.
//
// kScalar is held to the stricter standard everywhere — its GEMV and
// AccumulateABTranspose reduce sequentially too, and the default (kTiled)
// mode runs exactly those two kernels whatever rung is active.
//
// Every bit-exactness oracle is a loop written out in this file: the
// default-mode Matrix entry points themselves run the ladder, so comparing a
// rung against them would compare the ladder with itself.
//
// Also here: the KernelMode round-trip property, ForceIsa ladder clamping,
// and SelectIsaFromSpec parsing.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/matrix.h"
#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"

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
// double in ascending-k order, then rounded once and added: the scalar
// rung's (and the default mode's) AccumulateABTranspose.
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

TEST_F(SimdKernelsTest, AccumulateATransposeBBitIdenticalToAscendingLoopOnEveryIsa) {
  Rng rng(303);
  SetKernelMode(KernelMode::kTiled);
  for (const Shape& s : kMatShapes) {
    // out(p x q) += a(n x p)^T * b(n x q): reuse the grid as n=k, p=n, q=m.
    const size_t n = s.k, p = s.n, q = s.m;
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

TEST_F(SimdKernelsTest, AccumulateABTransposeUlpBoundedOnEveryIsa) {
  Rng rng(304);
  for (const Shape& s : kMatShapes) {
    // out(n x m) += a(n x k') * b(m x k')^T with k' = reduction length.
    const size_t n = s.n, red = s.m == 1 ? s.k : s.m, m = s.k;
    Matrix a(n, red), b(m, red), seed(n, m);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    seed.FillUniform(rng, 1.0f);
    std::vector<double> exact(n * m), term_mass(n * m);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        double acc = seed[i * m + j];
        double mass = std::fabs(acc);
        for (size_t c = 0; c < red; ++c) {
          const double t = static_cast<double>(a[i * red + c]) * b[j * red + c];
          acc += t;
          mass += std::fabs(t);
        }
        exact[i * m + j] = acc;
        term_mass[i * m + j] = mass;
      }
    }
    const double eps = 1.1920929e-7;
    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix out = seed;
      simd::AccumulateABTranspose(a.data(), b.data(), out.data(), n, red, m);
      for (size_t i = 0; i < out.size(); ++i) {
        const double bound = (static_cast<double>(red) + 8.0) * eps * term_mass[i] + 1e-12;
        EXPECT_LE(std::fabs(out[i] - exact[i]), bound)
            << simd::IsaName(isa) << " element " << i;
      }
    }
  }
}

// The portable fallback reduces sequentially on the REASSOCIATING paths too
// (GEMV, AccumulateABTranspose), and the default mode runs exactly those
// kernels whatever rung is active: both must match the sequential loops
// above bit for bit. The ci.sh simd-off leg (DEEPREST_SIMD=scalar) relies on
// the first half, training determinism on the second.
TEST_F(SimdKernelsTest, ScalarIsaAndDefaultModeBitIdenticalOnReassociatingPaths) {
  Rng rng(305);
  SetKernelMode(KernelMode::kTiled);
  for (const Shape& s : kMatShapes) {
    Matrix a(s.n, s.k), b(s.k, 1);
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    const Matrix gemv = AscendingKProduct(a, b);

    Matrix g(s.n, s.m), w(s.k, s.m), seed(s.n, s.k);
    g.FillUniform(rng, 1.0f);
    w.FillUniform(rng, 1.0f);
    seed.FillUniform(rng, 1.0f);
    const Matrix accabt = SequentialABTranspose(g, w, seed);

    ASSERT_EQ(simd::ForceIsa(simd::Isa::kScalar), simd::Isa::kScalar);
    Matrix out(s.n, 1);
    simd::MatMul(a.data(), b.data(), out.data(), s.n, s.k, 1);
    EXPECT_TRUE(BitIdentical(out, gemv)) << "scalar gemv " << s.n << "x" << s.k;
    Matrix scalar_acc = seed;
    simd::AccumulateABTranspose(g.data(), w.data(), scalar_acc.data(), s.n, s.m, s.k);
    EXPECT_TRUE(BitIdentical(scalar_acc, accabt))
        << "scalar accabt " << s.n << "x" << s.m << " * (" << s.k << "x" << s.m << ")^T";

    for (simd::Isa isa : SupportedIsas()) {
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      Matrix via_mode;
      MatMulInto(a, b, via_mode);
      EXPECT_TRUE(BitIdentical(via_mode, gemv))
          << "MatMulInto gemv on " << simd::IsaName(isa) << " " << s.n << "x" << s.k;
      Matrix mode_acc = seed;
      AccumulateABTranspose(g, w, mode_acc);
      EXPECT_TRUE(BitIdentical(mode_acc, accabt))
          << "AccumulateABTranspose on " << simd::IsaName(isa) << " " << s.n << "x" << s.m;
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

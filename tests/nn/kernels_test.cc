// Default-mode kernel vs reference-kernel equivalence.
//
// In the default (kTiled, exact) mode every GEMM blocks only over independent
// output elements, never over the reduction dimension, whichever ISA rung
// runs it, so it promises results IDENTICAL to the
// reference kernels up to the sign of zero: the reference MatMulInto skipped
// `a == 0.0f` terms, and adding a 0*b term can turn -0 into +0 (which still
// compares equal under ==). These tests pin that tolerance: exact value
// equality (operator==, where -0 == +0) always, and bit-for-bit equality
// whenever the inputs contain no zeros.
#include <cstring>

#include <gtest/gtest.h>

#include "src/nn/matrix.h"
#include "src/nn/rng.h"

namespace deeprest {
namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectValuesEqual(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    // operator== on floats: -0 == +0, and any magnitude difference fails.
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

// Shape grid covering the kernels' special cases: 1x1, matvec fast path
// (n == 1), the 4-row/4-column block remainders, and larger squares.
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},   {1, 5, 1},   {4, 8, 1},  {5, 9, 3},
                         {3, 7, 2},   {16, 256, 1}, {13, 13, 13}, {12, 12, 16},
                         {32, 17, 6}, {2, 1, 2}};

TEST(KernelsTest, TiledMatMulBitIdenticalOnNonZeroInputs) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n), tiled, ref;
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    // FillUniform essentially never produces exact zeros, so the zero-skip
    // in the reference kernel never fires and the results must be
    // bit-for-bit identical, not merely value-equal.
    MatMulInto(a, b, tiled);
    reference::MatMulInto(a, b, ref);
    EXPECT_TRUE(BitIdentical(tiled, ref)) << s.m << "x" << s.k << "*" << s.k << "x" << s.n;
  }
}

TEST(KernelsTest, TiledMatMulEqualsReferenceWithZeroRows) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n), tiled, ref;
    a.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    // Plant exact zeros so the reference skip path fires; the documented
    // tolerance is sign-of-zero only, which operator== ignores.
    for (size_t i = 0; i < a.size(); i += 3) {
      a[i] = 0.0f;
    }
    MatMulInto(a, b, tiled);
    reference::MatMulInto(a, b, ref);
    ExpectValuesEqual(tiled, ref);
  }
}

TEST(KernelsTest, TiledAccumulateATransposeBBitIdentical) {
  Rng rng(104);
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), g(s.m, s.n);
    a.FillUniform(rng, 1.0f);
    g.FillUniform(rng, 1.0f);
    Matrix tiled(s.k, s.n), ref(s.k, s.n);
    tiled.FillUniform(rng, 1.0f);  // accumulate on top of a non-trivial seed
    for (size_t i = 0; i < tiled.size(); ++i) {
      ref[i] = tiled[i];
    }
    AccumulateATransposeB(a, g, tiled);
    reference::AccumulateATransposeB(a, g, ref);
    EXPECT_TRUE(BitIdentical(tiled, ref)) << s.m << "x" << s.k;
  }
}

TEST(KernelsTest, TiledAccumulateABTransposeBitIdentical) {
  Rng rng(105);
  for (const Shape& s : kShapes) {
    Matrix g(s.m, s.n), b(s.k, s.n);
    g.FillUniform(rng, 1.0f);
    b.FillUniform(rng, 1.0f);
    Matrix tiled(s.m, s.k), ref(s.m, s.k);
    tiled.FillUniform(rng, 1.0f);
    for (size_t i = 0; i < tiled.size(); ++i) {
      ref[i] = tiled[i];
    }
    AccumulateABTranspose(g, b, tiled);
    reference::AccumulateABTranspose(g, b, ref);
    EXPECT_TRUE(BitIdentical(tiled, ref)) << s.m << "x" << s.k;
  }
}

TEST(KernelsTest, KernelModeDispatchesToReference) {
  Rng rng(106);
  Matrix a(7, 11), b(11, 4), via_mode, direct;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  SetKernelMode(KernelMode::kReference);
  EXPECT_EQ(GetKernelMode(), KernelMode::kReference);
  MatMulInto(a, b, via_mode);
  SetKernelMode(KernelMode::kTiled);
  reference::MatMulInto(a, b, direct);
  EXPECT_TRUE(BitIdentical(via_mode, direct));
  EXPECT_EQ(GetKernelMode(), KernelMode::kTiled);
}

}  // namespace
}  // namespace deeprest

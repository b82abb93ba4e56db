#include "src/nn/matrix.h"

#include <gtest/gtest.h>

#include "src/nn/rng.h"

namespace deeprest {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i], 0.0f);
  }
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 3.5f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i], 3.5f);
  }
}

TEST(MatrixTest, FromRowsLaysOutRowMajor) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.At(0, 0), 1.0f);
  EXPECT_EQ(m.At(0, 2), 3.0f);
  EXPECT_EQ(m.At(1, 0), 4.0f);
  EXPECT_EQ(m.At(1, 2), 6.0f);
}

TEST(MatrixTest, ColumnVector) {
  Matrix v = Matrix::Column({7, 8, 9});
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_EQ(v.At(1, 0), 8.0f);
}

TEST(MatrixTest, AddAndAddScaled) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_EQ(a.At(0, 0), 11.0f);
  EXPECT_EQ(a.At(1, 1), 44.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_EQ(a.At(0, 0), 1.0f);
  EXPECT_EQ(a.At(1, 1), 4.0f);
}

TEST(MatrixTest, Scale) {
  Matrix a = Matrix::FromRows({{2, 4}});
  a.Scale(0.5f);
  EXPECT_EQ(a.At(0, 0), 1.0f);
  EXPECT_EQ(a.At(0, 1), 2.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.At(0, 0), 19.0f);
  EXPECT_EQ(c.At(0, 1), 22.0f);
  EXPECT_EQ(c.At(1, 0), 43.0f);
  EXPECT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a = Matrix::FromRows({{1, 0, 2}});       // 1x3
  Matrix b = Matrix::FromRows({{1}, {2}, {3}});   // 3x1
  Matrix c = a.MatMul(b);                         // 1x1
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_EQ(c.At(0, 0), 7.0f);
}

TEST(MatrixTest, MatMulByIdentityIsNoop) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix id = Matrix::FromRows({{1, 0}, {0, 1}});
  EXPECT_EQ(a.MatMul(id), a);
  EXPECT_EQ(id.MatMul(a), a);
}

TEST(MatrixTest, MatMulIntoReusesStorage) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{1, 0}, {0, 1}});
  Matrix out(2, 2, 99.0f);
  MatMulInto(a, b, out);
  EXPECT_EQ(out, a);
}

TEST(MatrixTest, AccumulateATransposeB) {
  // a (2x2), b (2x3): out (2x3) += a^T b.
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{1, 0, 1}, {0, 1, 1}});
  Matrix out(2, 3);
  AccumulateATransposeB(a, b, out);
  Matrix expected = Matrix::FromRows({{1, 3, 4}, {2, 4, 6}});
  EXPECT_EQ(out, expected);
  // Accumulation: calling again doubles.
  AccumulateATransposeB(a, b, out);
  expected.Scale(2.0f);
  EXPECT_EQ(out, expected);
}

TEST(MatrixTest, AccumulateABTranspose) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});       // 1x3
  Matrix b = Matrix::FromRows({{4, 5, 6}, {1, 1, 1}});  // 2x3
  Matrix out(1, 2);
  AccumulateABTranspose(a, b, out);
  EXPECT_EQ(out, Matrix::FromRows({{32, 6}}));
}

TEST(MatrixTest, SumAddsEveryEntry) {
  Matrix a = Matrix::FromRows({{3, -4}});
  EXPECT_FLOAT_EQ(a.Sum(), -1.0f);
}

TEST(MatrixTest, FillUniformWithinBounds) {
  Rng rng(1);
  Matrix m(10, 10);
  m.FillUniform(rng, 0.25f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m[i], -0.25f);
    EXPECT_LE(m[i], 0.25f);
  }
}

TEST(MatrixTest, EqualityComparesShapeAndData) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1}, {2}});
  EXPECT_FALSE(a == b);
  Matrix c = Matrix::FromRows({{1, 2}});
  EXPECT_TRUE(a == c);
}

}  // namespace
}  // namespace deeprest

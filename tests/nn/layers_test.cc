#include "src/nn/layers.h"

#include <string>

#include <gtest/gtest.h>

#include "src/nn/rng.h"

namespace deeprest {
namespace {

TEST(ParameterStoreTest, CreateRegistersAndCounts) {
  ParameterStore store;
  store.Create("a", Matrix(2, 3));
  store.Create("b", Matrix(4, 1));
  EXPECT_EQ(store.entries().size(), 2u);
  EXPECT_EQ(store.TotalParameters(), 10u);
}

TEST(ParameterStoreTest, FindByName) {
  ParameterStore store;
  store.Create("x", Matrix(1, 1, 5.0f));
  const Parameter* found = store.Find("x");
  ASSERT_NE(found, nullptr);
  EXPECT_FLOAT_EQ(found->value.At(0, 0), 5.0f);
  EXPECT_EQ(store.Find("missing"), nullptr);
}

TEST(ParameterStoreTest, GradientIsShapedAtCreationAndZeroGradClearsIt) {
  ParameterStore store;
  Parameter& p = store.Create("p", Matrix(2, 3, 1.0f));
  ASSERT_TRUE(p.grad.SameShape(p.value));
  EXPECT_EQ(p.grad, Matrix(2, 3));
  p.grad.Fill(4.0f);
  store.ZeroGrad();
  EXPECT_EQ(p.grad, Matrix(2, 3));
}

TEST(ParameterStoreTest, HandlesSurviveGrowth) {
  // Layers keep handles into the store while it grows.
  ParameterStore store;
  Parameter& first = store.Create("first", Matrix(1, 1, 7.0f));
  for (int i = 0; i < 1000; ++i) {
    store.Create("p" + std::to_string(i), Matrix(3, 3));
  }
  EXPECT_EQ(&first, store.Find("first"));
  EXPECT_FLOAT_EQ(first.value.At(0, 0), 7.0f);
}

TEST(LinearTest, RegistersTwoParameters) {
  ParameterStore store;
  Rng rng(2);
  Linear layer(store, "fc", 4, 2, rng);
  EXPECT_EQ(store.entries().size(), 2u);
  EXPECT_EQ(store.TotalParameters(), 4u * 2u + 2u);
  EXPECT_EQ(layer.in_dim(), 4u);
  EXPECT_EQ(layer.out_dim(), 2u);
  EXPECT_EQ(&layer.weight(), store.Find("fc.W"));
  EXPECT_EQ(&layer.bias(), store.Find("fc.b"));
}

TEST(GruCellTest, ShapesAndParameterCount) {
  ParameterStore store;
  Rng rng(4);
  GruCell cell(store, "gru", 5, 3, rng);
  EXPECT_EQ(cell.in_dim(), 5u);
  EXPECT_EQ(cell.hidden_dim(), 3u);
  // 3 gates x (W: 3x5, U: 3x3, b: 3x1) = 3 * (15 + 9 + 3) = 81.
  EXPECT_EQ(store.TotalParameters(), 81u);
  EXPECT_EQ(cell.wz().value.rows(), 3u);
  EXPECT_EQ(cell.wz().value.cols(), 5u);
  EXPECT_EQ(cell.uh().value.cols(), 3u);
  EXPECT_EQ(cell.bk().value.cols(), 1u);
}

TEST(GruCellTest, FlattenedParametersSizeMatches) {
  ParameterStore store;
  Rng rng(8);
  GruCell cell(store, "gru", 5, 3, rng);
  EXPECT_EQ(cell.FlattenedParameters().size(), 81u);
}

}  // namespace
}  // namespace deeprest

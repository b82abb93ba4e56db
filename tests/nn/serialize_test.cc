#include "src/nn/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/nn/rng.h"

namespace deeprest {
namespace {

ParameterStore MakeStore(uint64_t seed) {
  ParameterStore store;
  Rng rng(seed);
  Matrix a(3, 4);
  a.FillUniform(rng, 1.0f);
  Matrix b(2, 1);
  b.FillUniform(rng, 1.0f);
  store.Create("layer.W", a);
  store.Create("layer.b", b);
  return store;
}

TEST(SerializeTest, RoundTripRestoresValues) {
  ParameterStore source = MakeStore(1);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters(source, buffer));

  ParameterStore dest = MakeStore(2);  // Different values, same shapes.
  ASSERT_TRUE(LoadParameters(dest, buffer));
  for (size_t i = 0; i < source.entries().size(); ++i) {
    EXPECT_EQ(source.entries()[i].value, dest.entries()[i].value);
  }
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "not a model file";
  ParameterStore store = MakeStore(1);
  EXPECT_FALSE(LoadParameters(store, buffer));
}

TEST(SerializeTest, RejectsShapeMismatch) {
  ParameterStore source = MakeStore(1);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters(source, buffer));

  ParameterStore dest;
  dest.Create("layer.W", Matrix(4, 3));  // Transposed shape.
  dest.Create("layer.b", Matrix(2, 1));
  EXPECT_FALSE(LoadParameters(dest, buffer));
}

TEST(SerializeTest, RejectsMissingParameter) {
  ParameterStore source = MakeStore(1);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters(source, buffer));

  ParameterStore dest;
  dest.Create("layer.W", Matrix(3, 4));
  dest.Create("other.q", Matrix(2, 1));
  EXPECT_FALSE(LoadParameters(dest, buffer));
}

TEST(SerializeTest, IgnoresExtraStreamEntries) {
  ParameterStore source = MakeStore(1);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters(source, buffer));

  ParameterStore dest;
  dest.Create("layer.b", Matrix(2, 1));  // Subset of what was saved.
  EXPECT_TRUE(LoadParameters(dest, buffer));
  EXPECT_EQ(dest.entries()[0].value, source.entries()[1].value);
}

}  // namespace
}  // namespace deeprest

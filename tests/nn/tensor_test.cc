#include "tests/testing/tensor.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/optimizer.h"
#include "src/nn/rng.h"
#include "tests/testing/ops.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

TEST(TensorTest, UndefinedByDefault) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ConstantDoesNotRequireGrad) {
  Tensor t = Tensor::Constant(Matrix(2, 2, 1.0f));
  EXPECT_TRUE(t.defined());
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, ParameterRequiresGrad) {
  Tensor t = Tensor::Parameter(Matrix(2, 2, 1.0f));
  EXPECT_TRUE(t.requires_grad());
}

TEST(TensorTest, OpWithOnlyConstantsDoesNotTrack) {
  Tensor a = Tensor::Constant(Matrix(1, 1, 1.0f));
  Tensor b = Tensor::Constant(Matrix(1, 1, 2.0f));
  Tensor c = Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_FLOAT_EQ(c.scalar(), 3.0f);
}

TEST(TensorTest, OpWithParameterTracks) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 1.0f));
  Tensor b = Tensor::Constant(Matrix(1, 1, 2.0f));
  EXPECT_TRUE(Add(a, b).requires_grad());
}

TEST(TensorTest, BackwardSimpleAdd) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 3.0f));
  Tensor b = Tensor::Parameter(Matrix(1, 1, 4.0f));
  Tensor loss = Add(a, b);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b.grad().At(0, 0), 1.0f);
}

TEST(TensorTest, BackwardDiamondGraphAccumulates) {
  // loss = (a + a) -> d(loss)/da = 2.
  Tensor a = Tensor::Parameter(Matrix(1, 1, 5.0f));
  Tensor loss = Add(a, a);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 2.0f);
}

TEST(TensorTest, BackwardSharedSubexpression) {
  // b = a*a; loss = b + b -> dloss/da = 2 * 2a = 4a.
  Tensor a = Tensor::Parameter(Matrix(1, 1, 3.0f));
  Tensor b = Hadamard(a, a);
  Tensor loss = Add(b, b);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 12.0f);
}

TEST(TensorTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 1.0f));
  Tensor loss = Add(a, a);
  loss.Backward();
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 4.0f);
}

TEST(TensorTest, DetachBlocksGradient) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 2.0f));
  Tensor b = Hadamard(a, a);
  Tensor detached = b.Detach();
  EXPECT_FALSE(detached.requires_grad());
  EXPECT_FLOAT_EQ(detached.value().At(0, 0), 4.0f);
}

TEST(TensorTest, DeepChainDoesNotOverflowStack) {
  // 50k-node chain; a recursive backward would overflow the stack.
  Tensor x = Tensor::Parameter(Matrix(1, 1, 1.0f));
  Tensor y = x;
  for (int i = 0; i < 50000; ++i) {
    y = Affine(y, 1.0f, 0.0f);
  }
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 1.0f);
}

TEST(TensorTest, ScalarRequiresOneByOne) {
  Tensor t = Tensor::Constant(Matrix(1, 1, 9.0f));
  EXPECT_FLOAT_EQ(t.scalar(), 9.0f);
}

TEST(TensorTest, NodeCounterIncreases) {
  const uint64_t before = TensorNodesCreated();
  Tensor::Constant(Matrix(1, 1));
  EXPECT_GT(TensorNodesCreated(), before);
}

TEST(TensorTest, NoGradGuardDisablesTracking) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 2.0f));
  {
    NoGradGuard guard;
    Tensor b = Hadamard(a, a);
    EXPECT_FALSE(b.requires_grad());
    EXPECT_FLOAT_EQ(b.scalar(), 4.0f);
  }
  // Tracking resumes after the guard is destroyed.
  Tensor c = Hadamard(a, a);
  EXPECT_TRUE(c.requires_grad());
}

TEST(TensorTest, NoGradGuardNests) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, 2.0f));
  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(NoGradGuard::GradEnabled());
    }
    EXPECT_FALSE(NoGradGuard::GradEnabled());
    EXPECT_FALSE(Hadamard(a, a).requires_grad());
  }
  EXPECT_TRUE(NoGradGuard::GradEnabled());
}

TEST(TensorTest, BackwardTwiceOnSameGraphResetsVisitedFlags) {
  // If visited flags were not reset, the second Backward would no-op.
  Tensor a = Tensor::Parameter(Matrix(1, 1, 1.0f));
  Tensor b = Tensor::Parameter(Matrix(1, 1, 2.0f));
  Tensor loss = Hadamard(a, b);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 2.0f);
  a.mutable_grad().Zero();
  b.mutable_grad().Zero();
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(b.grad().At(0, 0), 1.0f);
}

// One model's life on a long-lived thread: build it, train it on the tape
// over a few truncated-BPTT chunks, drop it. The wide input projection's
// leaf stands in for the weight and attention matrices whose nodes, pooled
// and then reused by small ops, kept their capacity and let a node-count cap
// pin more memory every cycle.
void LearnAndDestroyModel(uint64_t seed) {
  ParameterStore store;
  Rng rng(seed);
  Linear wide(store, "wide", 4096, 32, rng);
  GruCell gru(store, "gru", 32, 16, rng);
  Linear head(store, "head", 16, 1, rng);
  AdamOptimizer optimizer(store, 0.01f);
  Tensor h = Tensor::Constant(Matrix(16, 1));
  for (int chunk = 0; chunk < 3; ++chunk) {
    const TapeLeaves leaves(store);
    std::vector<Tensor> losses;
    for (int t = 0; t < 24; ++t) {
      Matrix x(4096, 1);
      x.FillUniform(rng, 1.0f);
      const Tensor projected = LinearReference(leaves, wide, Tensor::Constant(std::move(x)));
      h = GruStepReference(leaves, gru, projected, h);
      losses.push_back(SquaredError(LinearReference(leaves, head, h), Matrix(1, 1, 0.5f)));
    }
    AddN(losses).Backward();
    leaves.CopyGradients(store);
    optimizer.Step();
    h = h.Detach();
  }
}

TEST(TensorTest, FreelistStaysUnderByteCapAcrossLearnDestroyCycles) {
  // A fresh thread starts with an empty freelist, like a learner thread.
  std::thread([] {
    LearnAndDestroyModel(1);
    // The last chunk's graph stays pooled for reuse, but the 512 KB wide
    // weight's leaf does not: an oversized node is freed.
    const size_t first = TensorPoolBytes();
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, 4096 * 32 * sizeof(float));
    for (uint64_t cycle = 2; cycle <= 8; ++cycle) {
      LearnAndDestroyModel(cycle);
      EXPECT_LE(TensorPoolBytes(), kMaxTensorPoolBytes) << "cycle " << cycle;
      EXPECT_LT(TensorPoolBytes(), 4096 * 32 * sizeof(float)) << "cycle " << cycle;
    }
  }).join();
}

}  // namespace
}  // namespace deeprest

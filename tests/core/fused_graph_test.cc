// Estimator-level equivalence of the fused training graph and the tests'
// elementary-op oracle, plus serialize -> deserialize -> Clone round trips.
//
// StepAll builds each step from fused nodes (one per masked input / GRU step
// / attention / head) where the oracle (tests/testing/reference_graph.h)
// builds ~a dozen elementary ops each; the arithmetic per gradient buffer is
// identical, so every BPTT chunk of training must produce a bit-identical
// loss and bit-identical parameter gradients through either graph.
#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/nn/rng.h"
#include "src/telemetry/metrics.h"
#include "src/trace/collector.h"
#include "tests/testing/reference_graph.h"

namespace deeprest {
namespace {

// Deterministic synthetic workload, small enough to train in milliseconds.
struct Fixture {
  TraceCollector traces;
  MetricsStore metrics;
  size_t windows = 24;
  std::vector<MetricKey> resources;

  explicit Fixture(size_t components = 3, size_t fan = 6, uint64_t seed = 7) {
    Rng rng(seed);
    for (size_t c = 0; c < components; ++c) {
      resources.push_back({"Svc" + std::to_string(c), ResourceKind::kCpu});
    }
    for (size_t w = 0; w < windows; ++w) {
      const int count = rng.NextPoisson(8.0);
      for (int i = 0; i < count; ++i) {
        Trace t(w * 1000 + static_cast<uint64_t>(i), "/fan");
        const SpanIndex root = t.AddSpan("Frontend", "fan", kNoParent);
        for (size_t d = 0; d < fan; ++d) {
          t.AddSpan("Svc" + std::to_string(d % components), "op" + std::to_string(d), root);
        }
        traces.Collect(w, t);
      }
      for (size_t c = 0; c < components; ++c) {
        metrics.Record(resources[c], w, 5.0 + 0.1 * rng.Uniform(0, 10) + 0.2 * c);
      }
    }
  }
};

EstimatorConfig SmallConfig() {
  EstimatorConfig config;
  config.hidden_dim = 6;
  config.epochs = 3;
  config.bptt_chunk = 12;
  config.warm_start = false;
  config.seed = 3;
  return config;
}

void ExpectEstimatesIdentical(const EstimateMap& a, const EstimateMap& b) {
  ASSERT_EQ(a.size(), b.size());
  auto it_b = b.begin();
  for (const auto& [key, est] : a) {
    ASSERT_EQ(key.component, it_b->first.component);
    // Vector equality is elementwise ==, i.e. bit-exact up to zero signs.
    EXPECT_EQ(est.expected, it_b->second.expected) << key.component;
    EXPECT_EQ(est.lower, it_b->second.lower) << key.component;
    EXPECT_EQ(est.upper, it_b->second.upper) << key.component;
    ++it_b;
  }
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Walks the learn series in bptt_chunk chunks, carrying the hidden state
// across chunks and truncating gradient flow at each boundary as
// RunTraining does, and builds each chunk's pinball loss twice from the same
// parameters and hidden state: through the production StepAll and through
// the oracle's StepAllReference.
void ExpectChunksMatchReferenceGraph(DeepRestEstimator& model, const Fixture& fixture,
                                     size_t bptt_chunk) {
  const auto& features = ReferenceGraph::LearnFeatures(model);
  const auto targets = ReferenceGraph::ScaledTargets(model, fixture.metrics, 0, fixture.windows);
  ParameterStore& store = ReferenceGraph::Parameters(model);
  std::vector<Tensor> hidden = ReferenceGraph::ZeroState(model);
  for (size_t begin = 0; begin < features.size(); begin += bptt_chunk) {
    const size_t end = std::min(features.size(), begin + bptt_chunk);
    SCOPED_TRACE("chunk [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
    std::vector<Tensor> fused_hidden = hidden;
    store.ZeroGrad();
    const Tensor fused_loss = ReferenceGraph::ChunkLoss(model, /*reference=*/false, features,
                                                        targets, begin, end, fused_hidden);
    fused_loss.Backward();
    std::vector<Matrix> fused_grads;
    for (const auto& entry : store.entries()) {
      fused_grads.push_back(entry.tensor.grad());
    }

    std::vector<Tensor> ref_hidden = hidden;
    store.ZeroGrad();
    const Tensor ref_loss = ReferenceGraph::ChunkLoss(model, /*reference=*/true, features,
                                                      targets, begin, end, ref_hidden);
    ref_loss.Backward();

    EXPECT_TRUE(BitIdentical(fused_loss.value(), ref_loss.value()))
        << fused_loss.scalar() << " vs " << ref_loss.scalar();
    const auto& entries = store.entries();
    for (size_t p = 0; p < entries.size(); ++p) {
      EXPECT_TRUE(BitIdentical(fused_grads[p], entries[p].tensor.grad())) << entries[p].name;
    }
    for (size_t i = 0; i < hidden.size(); ++i) {
      ASSERT_TRUE(BitIdentical(fused_hidden[i].value(), ref_hidden[i].value()))
          << "expert " << i;
      hidden[i] = fused_hidden[i].Detach();
    }
  }
}

TEST(FusedGraphTest, ChunkLossAndGradientsBitIdenticalToReferenceGraph) {
  const Fixture fixture;
  EstimatorConfig base = SmallConfig();
  base.bptt_chunk = 10;  // 24 windows: two full chunks and a ragged tail
  for (const auto& [name, config] : AblationGrid(base)) {
    SCOPED_TRACE(name);
    DeepRestEstimator model(config);
    model.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
    ExpectChunksMatchReferenceGraph(model, fixture, config.bptt_chunk);
  }
}

TEST(FusedGraphTest, SerializeRoundTripPreservesEstimates) {
  const Fixture fixture;
  DeepRestEstimator original(SmallConfig());
  original.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
  const auto features =
      original.features().ExtractSeries(fixture.traces, 0, fixture.windows);
  const EstimateMap expected = original.EstimateFromFeatures(features);

  std::stringstream stream;
  ASSERT_TRUE(original.SaveToStream(stream));
  DeepRestEstimator loaded(SmallConfig());
  ASSERT_TRUE(loaded.LoadFromStream(stream));
  ExpectEstimatesIdentical(expected, loaded.EstimateFromFeatures(features));

  // And once more through Clone on the deserialized model: the full
  // save -> load -> clone chain must stay bit-identical.
  std::unique_ptr<DeepRestEstimator> clone = loaded.Clone();
  ExpectEstimatesIdentical(expected, clone->EstimateFromFeatures(features));
}

}  // namespace
}  // namespace deeprest

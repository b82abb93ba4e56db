// Estimator-level equivalence of the tape-free chunk trainer and the tests'
// elementary-op oracle, plus serialize -> deserialize -> Clone round trips.
//
// TrainChunk runs a BPTT chunk forward on the packed layout and backward by
// hand, where the oracle (tests/testing/reference_graph.h) binds the model's
// parameters to tape leaves, builds ~a dozen elementary ops per expert and
// window and runs Tensor::Backward. The
// arithmetic per gradient buffer is identical, so every chunk must produce a
// bit-identical loss, bit-identical parameter gradients and a bit-identical
// carried state either way, and whole training runs must write the same
// model bytes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/estimator.h"
#include "src/nn/rng.h"
#include "src/nn/serialize.h"
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

bool BitIdentical(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

// Walks the learn series in bptt_chunk chunks, carrying the hidden state
// across chunks and truncating gradient flow at each boundary as
// RunTraining does, and runs each chunk twice from the same parameters and
// hidden state: through the production chunk trainer and through the
// oracle's elementary graph.
void ExpectChunksMatchReferenceGraph(DeepRestEstimator& model, const Fixture& fixture,
                                     size_t bptt_chunk) {
  const auto& features = ReferenceGraph::LearnFeatures(model);
  const auto targets = ReferenceGraph::ScaledTargets(model, fixture.metrics, 0, fixture.windows);
  ParameterStore& store = ReferenceGraph::Parameters(model);
  std::vector<Tensor> hidden = ReferenceGraph::ZeroState(model);
  const size_t hd = model.hidden_dim();
  std::vector<float> trainer_hidden(hidden.size() * hd, 0.0f);
  for (size_t begin = 0; begin < features.size(); begin += bptt_chunk) {
    const size_t end = std::min(features.size(), begin + bptt_chunk);
    SCOPED_TRACE("chunk [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
    store.ZeroGrad();
    const float trainer_loss =
        ReferenceGraph::TrainerChunk(model, features, targets, begin, end, trainer_hidden);
    std::vector<Matrix> trainer_grads;
    for (const auto& entry : store.entries()) {
      trainer_grads.push_back(entry.grad);
    }

    const TapeLeaves leaves(store);
    const Tensor ref_loss =
        ReferenceGraph::ChunkLoss(model, leaves, features, targets, begin, end, hidden);
    ref_loss.Backward();
    leaves.CopyGradients(store);

    EXPECT_TRUE(BitIdentical(trainer_loss, ref_loss.scalar()))
        << trainer_loss << " vs " << ref_loss.scalar();
    const auto& entries = store.entries();
    for (size_t p = 0; p < entries.size(); ++p) {
      EXPECT_TRUE(BitIdentical(trainer_grads[p], entries[p].grad)) << entries[p].name;
    }
    for (size_t i = 0; i < hidden.size(); ++i) {
      ASSERT_EQ(std::memcmp(trainer_hidden.data() + i * hd, hidden[i].value().data(),
                            hd * sizeof(float)),
                0)
          << "expert " << i;
      hidden[i] = hidden[i].Detach();
    }
  }
}

std::string Bytes(const DeepRestEstimator& model) {
  std::stringstream stream;
  EXPECT_TRUE(model.SaveToStream(stream));
  return stream.str();
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

// Whole training runs, Learn then ContinueLearning, against the oracle's
// training loop on the elementary graph: the same model bytes and the same
// epoch losses, bit for bit, under every ablation.
TEST(FusedGraphTest, TrainingWritesModelBytesOfReferenceTrainingLoop) {
  const Fixture fixture;
  EstimatorConfig base = SmallConfig();
  base.bptt_chunk = 10;
  constexpr size_t kContinueFrom = 6;  // 18 windows: one full chunk and a ragged tail
  constexpr size_t kContinueEpochs = 2;
  for (const auto& [name, config] : AblationGrid(base)) {
    SCOPED_TRACE(name);
    DeepRestEstimator trained(config);
    trained.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
    trained.ContinueLearning(fixture.traces, fixture.metrics, kContinueFrom, fixture.windows,
                             kContinueEpochs);

    // The oracle model skips every production epoch (epochs = 0) and trains
    // through the reference loop instead, with Learn's and
    // ContinueLearning's learning rates and mask decay.
    EstimatorConfig untrained = config;
    untrained.epochs = 0;
    DeepRestEstimator oracle(untrained);
    oracle.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
    ReferenceGraph::RunTrainingReference(
        oracle, ReferenceGraph::LearnFeatures(oracle),
        ReferenceGraph::ScaledTargets(oracle, fixture.metrics, 0, fixture.windows),
        config.epochs, config.learning_rate, /*decay_masks=*/true);
    ReferenceGraph::RunTrainingReference(
        oracle, oracle.features().ExtractSeries(fixture.traces, kContinueFrom, fixture.windows),
        ReferenceGraph::ScaledTargets(oracle, fixture.metrics, kContinueFrom, fixture.windows),
        kContinueEpochs, config.learning_rate * 0.25f, /*decay_masks=*/false);
    // Zero epochs: only the synthesizer, history and caches update.
    oracle.ContinueLearning(fixture.traces, fixture.metrics, kContinueFrom, fixture.windows);

    ASSERT_EQ(trained.epoch_losses().size(), config.epochs + kContinueEpochs);
    ASSERT_EQ(oracle.epoch_losses().size(), trained.epoch_losses().size());
    EXPECT_EQ(std::memcmp(trained.epoch_losses().data(), oracle.epoch_losses().data(),
                          trained.epoch_losses().size() * sizeof(float)),
              0);
    EXPECT_TRUE(Bytes(trained) == Bytes(oracle));
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

// A truncated or corrupt model file fails the load: no exception, and no
// header field sizes an allocation before the bytes behind it are known to
// exist. The two corruptions claim 2^40 and ~2^64 values, so a loader that
// trusted them would throw at once instead of allocating.
TEST(ModelFileTest, TruncatedOrCorruptFilesFailClosed) {
  const Fixture fixture(/*components=*/2, /*fan=*/3);
  EstimatorConfig config = SmallConfig();
  config.hidden_dim = 2;
  config.epochs = 1;
  DeepRestEstimator model(config);
  model.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
  const std::string bytes = Bytes(model);
  ASSERT_LT(bytes.size(), 8192u);
  const auto loads = [](const std::string& file) {
    std::istringstream in(file);
    DeepRestEstimator loaded;
    bool ok = true;
    EXPECT_NO_THROW(ok = loaded.LoadFromStream(in));
    return ok;
  };
  ASSERT_TRUE(loads(bytes));
  for (size_t size = 0; size < bytes.size(); ++size) {
    ASSERT_FALSE(loads(bytes.substr(0, size))) << "truncated to " << size << " bytes";
  }

  const std::string path = ::testing::TempDir() + "/deeprest_corrupt_model.bin";
  const auto load_file = [&](const std::string& file) {
    std::ofstream(path, std::ios::binary) << file;
    DeepRestEstimator loaded;
    bool ok = true;
    EXPECT_NO_THROW(ok = loaded.Load(path));
    return ok;
  };
  // hidden_dim, the second u64 of the header.
  std::string corrupt = bytes;
  const uint64_t huge_hidden = uint64_t{1} << 40;
  std::memcpy(corrupt.data() + 8, &huge_hidden, sizeof(huge_hidden));
  EXPECT_FALSE(load_file(corrupt));
  // The parameter section closes the file; find it by saving the store on
  // its own.
  const ParameterStore& store = ReferenceGraph::Parameters(model);
  std::ostringstream section_stream;
  ASSERT_TRUE(SaveParameters(store, section_stream));
  const std::string section = section_stream.str();
  ASSERT_GE(bytes.size(), section.size());
  const size_t section_at = bytes.size() - section.size();
  ASSERT_EQ(bytes.compare(section_at, section.size(), section), 0);
  // The section's version field, after its magic: only version 1 loads.
  corrupt = bytes;
  const uint32_t version_two = 2;
  std::memcpy(corrupt.data() + section_at + 4, &version_two, sizeof(version_two));
  EXPECT_FALSE(load_file(corrupt));
  // The first parameter's rows and cols, after the section's magic, version
  // and count and the entry's name.
  const size_t shape = section_at + 12 + 4 + store.entries().front().name.size();
  corrupt = bytes;
  std::memset(corrupt.data() + shape, 0xFF, 2 * sizeof(uint32_t));
  EXPECT_FALSE(load_file(corrupt));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deeprest

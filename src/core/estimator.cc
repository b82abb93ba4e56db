#include "src/core/estimator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "src/nn/serialize.h"
#include "src/nn/simd/dispatch.h"

namespace deeprest {

namespace {

std::string ExpertName(size_t index) { return "expert" + std::to_string(index); }

// Most (row, window) pairs one block of the packed forward runs together.
// A block hoists the input GEMM, attention and the heads out of the window
// loop, and the input GEMM already runs at its per-row cost from 4 rows up.
// Larger blocks made the per-window core steps slower on a 4-vCPU AVX-512
// host (DESIGN.md §6), and the cap bounds scratch for long series such as
// the warm start. At width 1 a block is 8 windows, at width 8 and above one
// window.
constexpr size_t kBlockPairs = 8;

}  // namespace

DeepRestEstimator::DeepRestEstimator(const EstimatorConfig& config) : config_(config) {}

void DeepRestEstimator::BuildModel(size_t feature_dim,
                                   const std::vector<MetricKey>& resources) {
  Rng rng(config_.seed);
  experts_.clear();
  store_ = ParameterStore();
  experts_.reserve(resources.size());
  const size_t h = config_.hidden_dim;
  for (size_t i = 0; i < resources.size(); ++i) {
    Expert expert;
    expert.key = resources[i];
    const std::string name = ExpertName(i);
    // Mask logits start at +1 so sigmoid ~ 0.73: features begin mostly "on"
    // and irrelevant ones are learned away.
    expert.mask = &store_.Create(name + ".mask", Matrix(feature_dim, 1, 1.0f));
    expert.gru = GruCell(store_, name + ".gru", feature_dim, h, rng);
    expert.ff = Linear(store_, name + ".ff", feature_dim, h, rng);
    expert.head = Linear(store_, name + ".head", 2 * h, 3, rng);
    expert.skip = Linear(store_, name + ".skip", feature_dim, 3, rng);
    expert.initial_gru = expert.gru.FlattenedParameters();
    experts_.push_back(std::move(expert));
  }
  expert_index_.clear();
  for (size_t i = 0; i < experts_.size(); ++i) {
    expert_index_.emplace(experts_[i].key, static_cast<int>(i));
  }
  const size_t e = experts_.size();
  // Attention starts at zero: experts begin independent and learn to listen.
  alpha_ = &store_.Create("attention.alpha", Matrix(e, e));
  diag_mask_ = Matrix(e, e, 1.0f);
  for (size_t i = 0; i < e; ++i) {
    diag_mask_.At(i, i) = 0.0f;
  }
}

void DeepRestEstimator::Learn(const TraceCollector& traces, const MetricsStore& metrics,
                              size_t from, size_t to,
                              const std::vector<MetricKey>& resources) {
  const auto start_time = std::chrono::steady_clock::now();

  // Phase 1: feature-space construction + synthesizer statistics (Alg. 1).
  extractor_ = FeatureExtractor();
  synthesizer_ = TraceSynthesizer();
  extractor_.LearnRange(traces, from, to);
  synthesizer_.LearnRange(traces, from, to);
  synthesizer_.CompileFeatures(extractor_);

  // Phase 2: feature extraction (Alg. 2) and scaling statistics.
  learn_features_ = extractor_.ExtractSeries(traces, from, to);
  const size_t dim = extractor_.dimension();
  feature_scale_.assign(dim, 1.0f);
  for (const auto& x : learn_features_) {
    for (size_t d = 0; d < dim; ++d) {
      feature_scale_[d] = std::max(feature_scale_[d], x[d]);
    }
  }

  // Phase 3: targets and their scales.
  BuildModel(dim, resources);
  std::vector<std::vector<float>> targets(experts_.size());
  for (size_t i = 0; i < experts_.size(); ++i) {
    const auto series = metrics.Series(experts_[i].key, from, to);
    double max_value = 1e-9;
    for (double v : series) {
      max_value = std::max(max_value, v);
    }
    experts_[i].y_scale = max_value;
    targets[i].reserve(series.size());
    for (double v : series) {
      targets[i].push_back(static_cast<float>(v / max_value));
    }
  }

  // Phase 4: joint quantile-regression training (Eq. 5-6).
  epoch_losses_.clear();
  RunTraining(learn_features_, targets, config_.epochs, config_.learning_rate,
              /*decay_masks=*/true);
  RefreshWarmStartCache();

  train_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time)
                       .count();
}

void DeepRestEstimator::ContinueLearning(const TraceCollector& traces,
                                         const MetricsStore& metrics, size_t from, size_t to,
                                         size_t epochs) {
  assert(trained() && "ContinueLearning requires a trained model; call Learn first");
  const auto start_time = std::chrono::steady_clock::now();

  // New telemetry drives sampling statistics too: the synthesizer keeps
  // adapting Prob(P | API) to the drifted behaviour. The feature space and
  // topology stay frozen (unknown paths are ignored by ExtractSeries and by
  // the new shapes' compiled counts).
  synthesizer_.LearnRange(traces, from, to);
  synthesizer_.CompileFeatures(extractor_);

  const std::vector<std::vector<float>> features = extractor_.ExtractSeries(traces, from, to);
  std::vector<std::vector<float>> targets(experts_.size());
  for (size_t i = 0; i < experts_.size(); ++i) {
    const auto series = metrics.Series(experts_[i].key, from, to);
    // Scales stay fixed so the heads keep their meaning; clamp-free scaling
    // lets drifted utilization exceed 1.0, which the bypass can represent.
    targets[i].reserve(series.size());
    for (double v : series) {
      targets[i].push_back(static_cast<float>(v / experts_[i].y_scale));
    }
  }
  // Fine-tuning uses a reduced learning rate and no mask decay: a full-rate
  // Adam restart on a short drifted segment causes catastrophic forgetting
  // of the base calibration, and the masks are already learned.
  RunTraining(features, targets, epochs == 0 ? config_.epochs : epochs,
              config_.learning_rate * 0.25f, /*decay_masks=*/false);

  // Extend the warm-start history with the new windows and recompute the
  // cached hidden state (both the weights and the history changed).
  learn_features_.insert(learn_features_.end(), features.begin(), features.end());
  RefreshWarmStartCache();
  train_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  start_time)
                        .count();
}

EstimateMap DeepRestEstimator::EstimateFromFeatures(
    const std::vector<std::vector<float>>& feature_series) const {
  std::vector<EstimateMap> results = EstimateFromFeaturesBatch({&feature_series});
  return std::move(results.front());
}

std::vector<EstimateMap> DeepRestEstimator::EstimateFromFeaturesBatch(
    const std::vector<const std::vector<std::vector<float>>*>& batch) const {
  return EstimateFromFeaturesBatchResume(batch, {});
}

std::vector<EstimateMap> DeepRestEstimator::EstimateFromFeaturesBatchResume(
    const std::vector<const std::vector<std::vector<float>>*>& batch,
    const std::vector<StreamCursor*>& cursors) const {
  assert(trained());
  assert(cursors.empty() || cursors.size() == batch.size());

  const size_t e = experts_.size();
  const size_t hd = config_.hidden_dim;
  assert(warm_hidden_.size() == e * hd);
  std::vector<EstimateMap> results(batch.size());
  // Each query's estimate series, resolved once per call: slots[q * e + i] is
  // expert i's series in results[q].
  std::vector<ResourceEstimate*> slots(batch.size() * e);
  // Batch rows, longest query first, so the rows still running at window t
  // are always a prefix of width[t] rows.
  std::vector<size_t> order;
  order.reserve(batch.size());
  for (size_t q = 0; q < batch.size(); ++q) {
    if (batch[q] == nullptr) {
      continue;
    }
    order.push_back(q);
    for (size_t i = 0; i < e; ++i) {
      ResourceEstimate estimate;
      estimate.expected.reserve(batch[q]->size());
      estimate.lower.reserve(batch[q]->size());
      estimate.upper.reserve(batch[q]->size());
      slots[q * e + i] = &results[q].emplace(experts_[i].key, std::move(estimate)).first->second;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return batch[a]->size() > batch[b]->size(); });
  size_t rows = order.size();
  while (rows > 0 && batch[order[rows - 1]]->empty()) {
    --rows;
  }
  if (rows == 0) {
    return results;
  }
  const auto series = [&](size_t b) -> const std::vector<std::vector<float>>& {
    return *batch[order[b]];
  };
  const auto cursor_for = [&](size_t b) -> StreamCursor* {
    return cursors.empty() ? nullptr : cursors[order[b]];
  };
  const size_t dim = feature_scale_.size();
  const size_t max_len = series(0).size();
  std::vector<size_t> width(max_len);
  for (size_t t = 0, w = rows; t < max_len; ++t) {
    while (series(w - 1).size() <= t) {
      --w;
    }
    width[t] = w;
  }

  // Row b's state is row b of `state`, in the lane layout of cores_
  // (state(b, r·L + i) is row r of expert i's state). Every row starts from
  // the warm-start hidden state cached at train / load time — no per-call
  // replay of learn_features_ — unless the query carries a continuation
  // cursor, which seeds it with the stream's saved hidden state instead (raw
  // float bits, so a resumed series is bit-identical to an unsplit one). A
  // row whose query has ended is never stepped again, so it keeps its final
  // state.
  const size_t lanes = cores_.lanes;
  const size_t gate_rows = cores_.gates();
  Matrix state(rows, hd * lanes);
  for (size_t b = 0; b < rows; ++b) {
    const StreamCursor* cursor = cursor_for(b);
    const bool resume = cursor != nullptr && cursor->hidden.size() == e * hd;
    const float* seed = resume ? cursor->hidden.data() : warm_hidden_.data();
    StateToLanes(seed, hd, cores_, state.data() + b * hd * lanes);
  }

  // The windows run in blocks of consecutive windows holding at most
  // kBlockPairs (row, window) pairs, or one window when it alone is wider.
  // A block's pairs are window-major: the width[t] rows of window t, then
  // those of t + 1. Each expert runs its input block as one GEMM over every
  // pair, whose gate columns then move into the lane layout; every expert's
  // core steps together per window and row. Attention and the heads then
  // run once per block over the experts' state trajectories.
  const bool bypass = config_.use_linear_bypass;
  const bool attention = config_.use_attention;
  PackedScratch scratch;
  LaneStep step;
  std::vector<Matrix> gates(e);  // per expert, pairs x G (+3 bypass columns)
  std::vector<const Matrix*> gate_blocks(e);
  for (size_t i = 0; i < e; ++i) {
    gate_blocks[i] = &gates[i];
  }
  Matrix lane_gates;  // pairs x G·L
  Matrix x;           // pairs x dim scaled inputs
  Matrix trajectory;  // e x (pairs * hd): each pair's state after its window
  Matrix attended;    // like trajectory
  Matrix skip;        // e x (pairs * 3) bypass terms (skip x~ + sb)
  for (size_t begin = 0; begin < max_len;) {
    size_t end = begin + 1;
    size_t pairs = width[begin];
    while (end < max_len && pairs + width[end] <= kBlockPairs) {
      pairs += width[end++];
    }
    x.SetShape(pairs, dim);
    for (size_t t = begin, pair = 0; t < end; ++t) {
      for (size_t b = 0; b < width[t]; ++b, ++pair) {
        ScaleWindow(series(b)[t], x.data() + pair * dim);
      }
    }
    const size_t block = pairs * hd;
    trajectory.SetShape(e, block);
    if (bypass) {
      skip.SetShape(e, pairs * 3);
    }
    for (size_t i = 0; i < e; ++i) {
      PackedInputBlock(packed_[i], x, scratch.xm, gates[i]);
      if (bypass) {
        PackedBypass(packed_[i], gates[i].data(), pairs, skip.data() + i * pairs * 3);
      }
    }
    GatesToLanes(gate_blocks, gate_rows, lanes, lane_gates);
    for (size_t t = begin, pair = 0; t < end; ++t) {
      for (size_t b = 0; b < width[t]; ++b, ++pair) {
        float* h = state.data() + b * hd * lanes;
        LaneCoreStep(cores_, lane_gates.data() + pair * gate_rows * lanes, h, step);
        StateFromLanes(h, cores_, trajectory.data() + pair * hd, block);
      }
    }
    if (attention) {
      MatMulInto(packed_attention_, trajectory, attended);
    }
    for (size_t i = 0; i < e; ++i) {
      PackedExpertHead(packed_[i], attention ? attended.data() + i * block : nullptr,
                       trajectory.data() + i * block,
                       bypass ? skip.data() + i * pairs * 3 : nullptr, pairs, scratch);
      const Matrix& y = scratch.y;
      const double scale = experts_[i].y_scale;
      for (size_t t = begin, pair = 0; t < end; ++t) {
        for (size_t b = 0; b < width[t]; ++b, ++pair) {
          double expected = std::max(0.0, static_cast<double>(y.At(pair, 0)) * scale);
          double lower = std::max(0.0, static_cast<double>(y.At(pair, 1)) * scale);
          double upper = std::max(0.0, static_cast<double>(y.At(pair, 2)) * scale);
          // Quantile heads are trained independently and can cross on rare
          // inputs; enforce lower <= expected <= upper on output.
          lower = std::min(lower, expected);
          upper = std::max(upper, expected);
          ResourceEstimate& estimate = *slots[order[b] * e + i];
          estimate.expected.push_back(expected);
          estimate.lower.push_back(lower);
          estimate.upper.push_back(upper);
        }
      }
    }
    begin = end;
  }

  for (size_t b = 0; b < rows; ++b) {
    StreamCursor* cursor = cursor_for(b);
    if (cursor == nullptr) {
      continue;
    }
    cursor->hidden.resize(e * hd);
    StateFromLanes(state.data() + b * hd * lanes, cores_, cursor->hidden.data(), hd);
    cursor->steps += series(b).size();
  }
  return results;
}

void DeepRestEstimator::ScaleWindow(const std::vector<float>& raw, float* row) const {
  const size_t dim = feature_scale_.size();
  const size_t n = std::min(raw.size(), dim);
  for (size_t d = 0; d < n; ++d) {
    row[d] = raw[d] / feature_scale_[d];
  }
  std::fill(row + n, row + dim, 0.0f);
}

void DeepRestEstimator::RefreshWarmStartCache() {
  // Every mutation point funnels through here, so the packed weights can
  // never go stale against the parameters. They come first: the warm start
  // below runs on them.
  RefreshInferencePack();
  warm_hidden_.assign(experts_.size() * config_.hidden_dim, 0.0f);
  if (!config_.warm_start || experts_.empty() || learn_features_.empty()) {
    return;
  }
  // The learn history as one stream resumed from a zero state: its final
  // cursor state is exactly the state a stateless query starts from.
  StreamCursor cursor{warm_hidden_};
  EstimateFromFeaturesBatchResume({&learn_features_}, {&cursor});
  warm_hidden_ = std::move(cursor.hidden);
}

void DeepRestEstimator::RefreshInferencePack() {
  // Packs in place: the chunk trainer repacks after every optimizer step.
  const size_t e = experts_.size();
  const size_t hd = config_.hidden_dim;
  packed_.resize(e);
  ResetLaneCores(e, LaneCount(e), hd, config_.use_recurrence, cores_);
  Matrix stacked;
  for (size_t i = 0; i < e; ++i) {
    const Expert& expert = experts_[i];
    PackedExpert& p = packed_[i];
    p.hidden = hd;
    if (config_.use_api_mask) {
      const Matrix& logits = expert.mask->value;
      p.mask.SetShape(1, logits.size());
      simd::Sigmoid(logits.data(), p.mask.data(), logits.size());
    } else {
      p.mask = Matrix();
    }
    std::vector<const Matrix*> in_blocks;
    if (config_.use_recurrence) {
      const GruCell& gru = expert.gru;
      in_blocks = {&gru.wz().value, &gru.wk().value, &gru.wh().value};
      PackGruLane(gru, i, cores_, stacked);
    } else {
      in_blocks = {&expert.ff.weight().value};
      PackLane(expert.ff.bias().value, i, cores_.bias);
    }
    if (config_.use_linear_bypass) {
      in_blocks.push_back(&expert.skip.weight().value);
      p.skip_b = expert.skip.bias().value;
    } else {
      p.skip_b = Matrix();
    }
    StackTransposedInto(in_blocks, p.w_in);
    p.head_b = expert.head.bias().value;
    StackTransposedInto({&expert.head.weight().value}, p.head);
  }
  if (config_.use_attention && !experts_.empty()) {
    HadamardInto(alpha_->value, diag_mask_, packed_attention_);
  } else {
    packed_attention_ = Matrix();
  }
}

EstimateMap DeepRestEstimator::EstimateFromTraces(const TraceCollector& traces, size_t from,
                                                  size_t to) const {
  return EstimateFromFeatures(extractor_.ExtractSeries(traces, from, to));
}

EstimateMap DeepRestEstimator::EstimateFromTraffic(const TrafficSeries& traffic,
                                                   uint64_t seed) const {
  Rng rng(seed);
  return EstimateFromFeatures(synthesizer_.SynthesizeFeatures(traffic, rng));
}

std::vector<MetricKey> DeepRestEstimator::resources() const {
  std::vector<MetricKey> keys;
  keys.reserve(experts_.size());
  for (const auto& expert : experts_) {
    keys.push_back(expert.key);
  }
  return keys;
}

int DeepRestEstimator::ExpertIndex(const MetricKey& key) const {
  auto it = expert_index_.find(key);
  return it == expert_index_.end() ? -1 : it->second;
}

std::vector<double> DeepRestEstimator::FeatureMask(const MetricKey& key) const {
  const int index = ExpertIndex(key);
  if (index < 0) {
    return {};
  }
  const Matrix& logits = experts_[index].mask->value;
  std::vector<double> mask(logits.size());
  for (size_t d = 0; d < logits.size(); ++d) {
    // Introspection in double (ApiInfluence, Fig. 22); the model's own mask
    // is the float simd::Sigmoid of RefreshInferencePack.
    // deeprest-lint: allow(owned-nonlinearities)
    mask[d] = 1.0 / (1.0 + std::exp(-static_cast<double>(logits[d])));
  }
  return mask;
}

std::map<std::string, double> DeepRestEstimator::ApiInfluence(const MetricKey& key) const {
  std::map<std::string, double> influence;
  const int index = ExpertIndex(key);
  if (index < 0) {
    return influence;
  }
  const Expert& expert = experts_[static_cast<size_t>(index)];
  const std::vector<double> mask = FeatureMask(key);

  // Effective input relevance of feature f: its mask activation times the
  // total magnitude of the weights that consume it (the linear bypass plus
  // the GRU/FF input projections). The mask alone can stay high for features
  // the network routes through near-zero weights; the product measures what
  // the expert actually uses.
  std::vector<double> weight_mass(mask.size(), 0.0);
  auto accumulate_columns = [&](const Parameter& weight) {
    const Matrix& w = weight.value;
    if (w.cols() != mask.size()) {
      return;
    }
    for (size_t r = 0; r < w.rows(); ++r) {
      for (size_t f = 0; f < w.cols(); ++f) {
        weight_mass[f] += std::fabs(static_cast<double>(w.At(r, f)));
      }
    }
  };
  if (config_.use_linear_bypass) {
    accumulate_columns(expert.skip.weight());
  }
  if (config_.use_recurrence) {
    for (const Parameter* gate : {&expert.gru.wz(), &expert.gru.wk(), &expert.gru.wh()}) {
      accumulate_columns(*gate);
    }
  } else {
    accumulate_columns(expert.ff.weight());
  }

  std::map<std::string, size_t> counts;
  for (size_t f = 0; f < mask.size(); ++f) {
    const std::string api = extractor_.DominantApiOf(f);
    if (api.empty()) {
      continue;
    }
    influence[api] += mask[f] * weight_mass[f];
    ++counts[api];
  }
  for (auto& [api, value] : influence) {
    value /= static_cast<double>(counts[api]);
  }
  return influence;
}

std::vector<float> DeepRestEstimator::ExpertParameters(const MetricKey& key) const {
  const int index = ExpertIndex(key);
  if (index < 0) {
    return {};
  }
  return experts_[index].gru.FlattenedParameters();
}

std::vector<float> DeepRestEstimator::ExpertParameterDelta(const MetricKey& key) const {
  const int index = ExpertIndex(key);
  if (index < 0) {
    return {};
  }
  const Expert& expert = experts_[static_cast<size_t>(index)];
  std::vector<float> delta = expert.gru.FlattenedParameters();
  for (size_t i = 0; i < delta.size() && i < expert.initial_gru.size(); ++i) {
    delta[i] -= expert.initial_gru[i];
  }
  return delta;
}

double DeepRestEstimator::AttentionWeight(const MetricKey& to, const MetricKey& from) const {
  const int i = ExpertIndex(to);
  const int j = ExpertIndex(from);
  if (i < 0 || j < 0 || i == j) {
    return 0.0;
  }
  return alpha_->value.At(static_cast<size_t>(i), static_cast<size_t>(j));
}

namespace {

// Coarse component families for transfer matching.
enum class ComponentFamily { kDatabase, kCache, kService };

ComponentFamily FamilyOf(const std::string& component) {
  if (component.find("MongoDB") != std::string::npos) {
    return ComponentFamily::kDatabase;
  }
  if (component.find("Memcached") != std::string::npos ||
      component.find("Redis") != std::string::npos) {
    return ComponentFamily::kCache;
  }
  return ComponentFamily::kService;
}

}  // namespace

size_t DeepRestEstimator::TransferRecurrentWeightsFrom(const DeepRestEstimator& donor) {
  if (!trained() || !donor.trained() || config_.hidden_dim != donor.config_.hidden_dim) {
    return 0;
  }
  static const char* kRecurrentBlocks[] = {".gru.Uz", ".gru.Uk", ".gru.Uh",
                                           ".gru.bz", ".gru.bk", ".gru.bh"};
  size_t transferred = 0;
  for (size_t i = 0; i < experts_.size(); ++i) {
    const MetricKey& key = experts_[i].key;
    // Best donor: exact key > same kind + family > same kind.
    int best = -1;
    int best_rank = 0;
    for (size_t j = 0; j < donor.experts_.size(); ++j) {
      const MetricKey& donor_key = donor.experts_[j].key;
      if (donor_key.resource != key.resource) {
        continue;
      }
      int rank = 1;
      if (FamilyOf(donor_key.component) == FamilyOf(key.component)) {
        rank = 2;
      }
      if (donor_key.component == key.component) {
        rank = 3;
      }
      if (rank > best_rank) {
        best_rank = rank;
        best = static_cast<int>(j);
      }
    }
    if (best < 0) {
      continue;
    }
    for (const char* block : kRecurrentBlocks) {
      Parameter* mine = store_.Find(ExpertName(i) + block);
      const Parameter* theirs =
          donor.store_.Find(ExpertName(static_cast<size_t>(best)) + block);
      if (mine != nullptr && theirs != nullptr && mine->value.SameShape(theirs->value)) {
        mine->value = theirs->value;
      }
    }
    ++transferred;
  }
  if (transferred > 0) {
    RefreshWarmStartCache();  // the recurrent weights changed under the replay
  }
  return transferred;
}

std::map<MetricKey, std::vector<float>> DeepRestEstimator::HiddenTrajectories(
    const std::vector<std::vector<float>>& features) const {
  std::map<MetricKey, std::vector<float>> trajectories;
  if (!trained()) {
    return trajectories;
  }
  const size_t hd = config_.hidden_dim;
  for (const auto& expert : experts_) {
    trajectories[expert.key].reserve(features.size() * hd);
  }
  StreamCursor cursor{std::vector<float>(experts_.size() * hd, 0.0f)};
  std::vector<std::vector<float>> window(1);
  for (const auto& raw : features) {
    window[0] = raw;
    EstimateFromFeaturesBatchResume({&window}, {&cursor});
    for (size_t i = 0; i < experts_.size(); ++i) {
      const float* h = cursor.hidden.data() + i * hd;
      auto& out = trajectories[experts_[i].key];
      out.insert(out.end(), h, h + hd);
    }
  }
  return trajectories;
}

std::map<MetricKey, std::vector<float>> DeepRestEstimator::HiddenTrajectoriesOnLearnData(
    size_t windows) const {
  std::vector<std::vector<float>> probe(
      learn_features_.begin(),
      learn_features_.begin() +
          static_cast<ptrdiff_t>(std::min(windows, learn_features_.size())));
  return HiddenTrajectories(probe);
}

// ---- Persistence ----

namespace {

constexpr uint32_t kEstimatorMagic = 0x44455245;  // "DERE"

// Bytes after the read position of a file or string stream, the only kinds
// a model is loaded from; unbounded when the stream cannot seek.
uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here < 0 || !in.seekg(0, std::ios::end)) {
    in.clear();
    return UINT64_MAX;
  }
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<uint64_t>(end - here) : 0;
}

}  // namespace

bool DeepRestEstimator::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  return SaveToStream(out);
}

bool DeepRestEstimator::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  return LoadFromStream(in);
}

std::unique_ptr<DeepRestEstimator> DeepRestEstimator::Clone() const {
  auto copy = std::make_unique<DeepRestEstimator>(config_);
  if (!trained()) {
    return copy;
  }
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  if (!SaveToStream(buffer) || !copy->LoadFromStream(buffer)) {
    return nullptr;
  }
  return copy;
}

bool DeepRestEstimator::SaveToStream(std::ostream& out) const {
  auto write_u64 = [&](uint64_t v) { out.write(reinterpret_cast<const char*>(&v), 8); };
  auto write_f64 = [&](double v) { out.write(reinterpret_cast<const char*>(&v), 8); };
  auto write_str = [&](const std::string& s) {
    write_u64(s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  write_u64(kEstimatorMagic);
  write_u64(config_.hidden_dim);
  write_u64((config_.use_api_mask ? 1u : 0u) | (config_.use_attention ? 2u : 0u) |
            (config_.use_recurrence ? 4u : 0u) | (config_.warm_start ? 8u : 0u) |
            (config_.use_linear_bypass ? 16u : 0u));
  write_f64(config_.delta);
  write_u64(experts_.size());
  for (const auto& expert : experts_) {
    write_str(expert.key.component);
    write_u64(static_cast<uint64_t>(expert.key.resource));
    write_f64(expert.y_scale);
  }
  extractor_.Save(out);
  synthesizer_.Save(out);
  write_u64(feature_scale_.size());
  for (float v : feature_scale_) {
    write_f64(v);
  }
  write_u64(learn_features_.size());
  for (const auto& x : learn_features_) {
    for (float v : x) {
      write_f64(v);
    }
  }
  return SaveParameters(store_, out);
}

bool DeepRestEstimator::LoadFromStream(std::istream& in) {
  auto read_u64 = [&](uint64_t& v) {
    in.read(reinterpret_cast<char*>(&v), 8);
    return static_cast<bool>(in);
  };
  auto read_f64 = [&](double& v) {
    in.read(reinterpret_cast<char*>(&v), 8);
    return static_cast<bool>(in);
  };
  auto read_str = [&](std::string& s) {
    uint64_t len = 0;
    if (!read_u64(len) || len > (1u << 24)) {
      return false;
    }
    s.resize(len);
    in.read(s.data(), static_cast<std::streamsize>(len));
    return static_cast<bool>(in);
  };

  uint64_t magic = 0;
  uint64_t hidden = 0;
  uint64_t flags = 0;
  double delta = 0.0;
  if (!read_u64(magic) || magic != kEstimatorMagic || !read_u64(hidden) ||
      !read_u64(flags) || !read_f64(delta)) {
    return false;
  }
  config_.hidden_dim = hidden;
  config_.use_api_mask = (flags & 1u) != 0;
  config_.use_attention = (flags & 2u) != 0;
  config_.use_recurrence = (flags & 4u) != 0;
  config_.warm_start = (flags & 8u) != 0;
  config_.use_linear_bypass = (flags & 16u) != 0;
  config_.delta = static_cast<float>(delta);

  uint64_t expert_count = 0;
  if (!read_u64(expert_count) || expert_count > (1u << 20)) {
    return false;
  }
  std::vector<MetricKey> resources(expert_count);
  std::vector<double> y_scales(expert_count);
  for (uint64_t i = 0; i < expert_count; ++i) {
    uint64_t kind = 0;
    if (!read_str(resources[i].component) || !read_u64(kind) || !read_f64(y_scales[i])) {
      return false;
    }
    resources[i].resource = static_cast<ResourceKind>(kind);
  }
  if (!extractor_.Load(in) || !synthesizer_.Load(in)) {
    return false;
  }
  synthesizer_.CompileFeatures(extractor_);
  uint64_t dim = 0;
  if (!read_u64(dim) || dim != extractor_.dimension()) {
    return false;
  }
  feature_scale_.resize(dim);
  for (auto& v : feature_scale_) {
    double value = 0.0;
    if (!read_f64(value)) {
      return false;
    }
    v = static_cast<float>(value);
  }
  // From here on a corrupt size field must fail the load before it sizes
  // anything: the history grows as its windows arrive, and the model is
  // built only once the stream can hold its parameters.
  uint64_t learn_windows = 0;
  if (!read_u64(learn_windows) || learn_windows > (1u << 24)) {
    return false;
  }
  learn_features_.clear();
  for (uint64_t w = 0; w < learn_windows; ++w) {
    for (auto& v : learn_features_.emplace_back(dim)) {
      double value = 0.0;
      if (!read_f64(value)) {
        return false;
      }
      v = static_cast<float>(value);
    }
  }
  // Every expert stores its GRU's three H x D input and three H x H recurrent
  // blocks, at four bytes a value.
  const double h = static_cast<double>(hidden);
  if (4.0 * 3.0 * static_cast<double>(expert_count) * (h * h + h * static_cast<double>(dim)) >
      static_cast<double>(BytesLeft(in))) {
    return false;
  }
  BuildModel(dim, resources);
  for (uint64_t i = 0; i < expert_count; ++i) {
    experts_[i].y_scale = y_scales[i];
  }
  if (!LoadParameters(store_, in)) {
    return false;
  }
  RefreshWarmStartCache();
  return true;
}

}  // namespace deeprest

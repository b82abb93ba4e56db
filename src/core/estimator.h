// API-aware deep resource estimator (paper section 4.2-4.3).
//
// One DNN expert per (component, resource):
//   x~_t = sigmoid(m) . x_t                         (API-aware mask, Eq. 1)
//   h_t  = GRU(x~_t, h_{t-1})                       (recurrence, Eq. 2)
//   a_t  = sum_{(c',r') != (c,r)} alpha h_t^{c',r'} (cross-expert attention, Eq. 3)
//   y^_t = V (a_t || h_t)                           (3 heads, Eq. 4)
// trained jointly with the quantile loss of Eq. 5-6 so the three heads are
// the expected value and the delta-confidence interval.
#ifndef SRC_CORE_ESTIMATOR_H_
#define SRC_CORE_ESTIMATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/feature_extractor.h"
#include "src/core/trace_synthesizer.h"
#include "src/nn/batched.h"
#include "src/nn/layers.h"
#include "src/nn/rng.h"
#include "src/telemetry/metrics.h"
#include "src/trace/collector.h"
#include "src/workload/traffic.h"

namespace deeprest {

struct EstimatorConfig {
  size_t hidden_dim = 16;
  size_t epochs = 14;
  float learning_rate = 0.02f;  // Adam
  size_t bptt_chunk = 48;       // truncated-BPTT window
  float delta = 0.90f;          // confidence level of the interval heads
  float grad_clip = 5.0f;
  // Constant per-step decay applied to the mask logits after each optimizer
  // step. Features that consistently reduce the loss get pushed back up by
  // their gradients; features that do not drift toward zero weight. This is
  // what makes the learned masks interpretable as API -> resource
  // attribution (paper Fig. 22). (A graph-side L1 penalty is ineffective
  // here because Adam's per-parameter normalization drowns it out.)
  float mask_decay = 0.02f;
  uint64_t seed = 1;
  // Warm the hidden state on the learning-phase features before answering a
  // query, so stateful resources (e.g. cumulative disk usage) continue from
  // the production trajectory instead of restarting at zero history.
  bool warm_start = true;
  // Ablation switches (bench_ablation):
  bool use_api_mask = true;
  bool use_attention = true;
  bool use_recurrence = true;  // false -> feed-forward experts
  // Linear bypass from the masked features to the output heads. The GRU's
  // tanh-bounded hidden state cannot extrapolate past the utilization range
  // seen in training; the bypass carries the first-order traffic->resource
  // proportionality so unseen-scale queries (paper section 5.3) scale, while
  // the recurrent path models queueing, caching, and cumulative effects.
  bool use_linear_bypass = true;
  bool verbose = false;
};

struct ResourceEstimate {
  std::vector<double> expected;
  std::vector<double> lower;
  std::vector<double> upper;
};

using EstimateMap = std::map<MetricKey, ResourceEstimate>;

// Threading contract: all const member functions (the whole inference and
// introspection surface — EstimateFrom*, FeatureMask, HiddenTrajectories,
// Save, Clone, ...) only read model state and are safe to call from any
// number of threads concurrently, per the src/nn contract (see layers.h).
// Learn / ContinueLearning / Load / TransferRecurrentWeightsFrom mutate the
// model and must be externally serialized against every other call. The
// serving layer (src/serve) never mutates a published model: ContinualLearner
// trains a Clone() and swaps it in through the ModelRegistry.
class DeepRestEstimator {
 public:
  explicit DeepRestEstimator(const EstimatorConfig& config = {});
  // The layers hold handles into this model's own parameters, so a copy
  // would train the original's; Clone() is the way to copy a model. A move
  // keeps the handles valid: the store hands over its parameters' storage
  // without moving the parameters.
  DeepRestEstimator(const DeepRestEstimator&) = delete;
  DeepRestEstimator& operator=(const DeepRestEstimator&) = delete;
  DeepRestEstimator(DeepRestEstimator&&) = default;
  DeepRestEstimator& operator=(DeepRestEstimator&&) = default;

  // Application learning phase: consumes the telemetry server's traces and
  // utilization for windows [from, to) and trains all experts jointly.
  void Learn(const TraceCollector& traces, const MetricsStore& metrics, size_t from,
             size_t to, const std::vector<MetricKey>& resources);

  // Incremental adaptation (paper section 6: concept drift / new behaviours
  // over time): fine-tunes the already-trained model on additional telemetry
  // without rebuilding the feature space. Paths or (component, operation)
  // pairs that never occurred during the original learning phase are ignored
  // — call Learn() again to grow the feature space instead. The new windows
  // are appended to the warm-start history. `epochs` defaults to the
  // configured epoch count when 0.
  void ContinueLearning(const TraceCollector& traces, const MetricsStore& metrics,
                        size_t from, size_t to, size_t epochs = 0);

  // Transfer learning (paper section 6): initializes this model's recurrent
  // blocks (U matrices and gate biases — the application-independent part of
  // each expert; the input projections depend on the feature space and are
  // not transferable) from a donor trained on another application. Experts
  // are matched by exact (component, resource), then by resource kind plus
  // component-family (MongoDB / cache / service), then by resource kind
  // alone. Hidden dimensions must match. Returns the number of experts
  // initialized. Typical use: Learn with epochs = 0 to build the model, call
  // this, then ContinueLearning to fine-tune.
  size_t TransferRecurrentWeightsFrom(const DeepRestEstimator& donor);

  // Mode 2 (sanity check): estimate expected utilization for real traces.
  EstimateMap EstimateFromTraces(const TraceCollector& traces, size_t from, size_t to) const;

  // Mode 1 (resource allocation): hypothetical traffic -> synthetic traces ->
  // estimate. `seed` controls the synthesizer's sampling. The traces are
  // never built: the synthesizer sums its shapes' compiled feature counts
  // (TraceSynthesizer::SynthesizeFeatures), bit-identical to synthesizing
  // and extracting.
  EstimateMap EstimateFromTraffic(const TrafficSeries& traffic, uint64_t seed) const;

  // Direct estimation from an already-built feature series (advanced use).
  EstimateMap EstimateFromFeatures(const std::vector<std::vector<float>>& features) const;

  // Batch-major micro-batched estimation: answers several feature-series
  // queries in one pass over the packed weights (src/nn/batched.h). The
  // windows run in blocks of up to 8 (query, window) pairs, each pair one
  // row of the block's activation matrices. Per block and expert, the gates
  // plus bypass are one (P x D) * (D x 3H+3) GEMM, only the [Uz;Uk] and Uh
  // products step per window, and the head is one more GEMM; cross-expert
  // attention is a single (E x E) * (E x P·H) GEMM over the block's stacked
  // hidden states. Queries are ordered longest-first, so the rows still
  // running are always a prefix and a finished row is simply no longer
  // stepped; every query starts from the warm-start hidden state cached at
  // train / load time (no per-call replay of learn_features_). Per query,
  // results are bit-identical to stepping the training graph's elementary-op
  // composition one window at a time (the test oracle,
  // tests/testing/reference_graph.h) — every GEMM output element keeps the
  // ascending-k reduction of the GEMV it replaces.
  // Results are index-aligned with `batch`; null entries are skipped and
  // yield an empty map. This is the forward path behind EstimationService's
  // request coalescing (src/serve).
  std::vector<EstimateMap> EstimateFromFeaturesBatch(
      const std::vector<const std::vector<std::vector<float>>*>& batch) const;

  // Per-stream continuation cursor for EstimateFromFeaturesBatchResume. The
  // hidden state is flattened expert-major (expert_count() * hidden_dim()
  // floats: expert i's H-vector at [i*H, (i+1)*H)); `steps` counts the
  // windows the stream has consumed so far. An empty (or wrong-sized)
  // `hidden` means "fresh": the row starts from the warm-start cache
  // exactly like a stateless query. This is the unit the soft-memory state
  // cache stores, spills and restores (src/serve/state_cache.h).
  struct StreamCursor {
    std::vector<float> hidden;
    uint64_t steps = 0;
  };

  // EstimateFromFeaturesBatch with per-stream continuation: cursors is
  // index-aligned with `batch` (or empty = all stateless); a non-null cursor
  // seeds its row's initial hidden state and receives the row's FINAL
  // hidden state (plus the consumed window count) back at the end of the
  // call. Splitting one feature series across successive resumed calls is
  // bit-identical to one pass over the whole series — the cursor round-trips
  // raw float bits, and the GEMM kernels keep per-query reduction order —
  // which is what makes state-cache eviction a non-event for correctness.
  std::vector<EstimateMap> EstimateFromFeaturesBatchResume(
      const std::vector<const std::vector<std::vector<float>>*>& batch,
      const std::vector<StreamCursor*>& cursors) const;

  size_t hidden_dim() const { return config_.hidden_dim; }

  // --- Introspection / interpretation ---
  bool trained() const { return !experts_.empty(); }
  const FeatureExtractor& features() const { return extractor_; }
  const TraceSynthesizer& synthesizer() const { return synthesizer_; }
  std::vector<MetricKey> resources() const;

  // sigmoid(m) per feature dimension for one expert (paper Fig. 22 raw data).
  std::vector<double> FeatureMask(const MetricKey& key) const;
  // Mask weight aggregated per API (mean over the features each API owns).
  std::map<std::string, double> ApiInfluence(const MetricKey& key) const;
  // Flattened GRU parameters of one expert (input to the Fig. 21 PCA).
  std::vector<float> ExpertParameters(const MetricKey& key) const;
  // Training delta of the GRU parameters (current - initialization). The
  // delta is what encodes the learned remember/forget dynamics; raw
  // parameters are dominated by the per-expert random initialization.
  std::vector<float> ExpertParameterDelta(const MetricKey& key) const;
  // Learned attention weight alpha[to][from] between two experts.
  double AttentionWeight(const MetricKey& to, const MetricKey& from) const;
  // Runs the model over a (raw) feature series from a zero hidden state and
  // returns every expert's flattened hidden-state trajectory: the packed
  // forward, resumed one window at a time. This functional embedding is what
  // the Fig. 21 similarity analysis uses: experts with similar
  // remember/forget dynamics produce similar trajectories on the same probe
  // input.
  std::map<MetricKey, std::vector<float>> HiddenTrajectories(
      const std::vector<std::vector<float>>& features) const;
  // Convenience: trajectories on the stored learning-phase features,
  // truncated to the first `windows` windows.
  std::map<MetricKey, std::vector<float>> HiddenTrajectoriesOnLearnData(size_t windows) const;

  // --- Scalability stats (paper section 6) ---
  size_t TotalParameters() const { return store_.TotalParameters(); }
  size_t expert_count() const { return experts_.size(); }
  double train_seconds() const { return train_seconds_; }
  const std::vector<float>& epoch_losses() const { return epoch_losses_; }

  // --- Persistence ---
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);
  bool SaveToStream(std::ostream& out) const;
  bool LoadFromStream(std::istream& in);

  // Deep copy with independent parameters, produced by an in-memory
  // serialization round-trip so the copy is exactly what Save+Load would
  // reconstruct. This is what ContinualLearner trains on: the published
  // snapshot stays immutable while its clone is fine-tuned and re-published
  // through the ModelRegistry. Training-only config (epochs, learning rate,
  // BPTT chunk) is inherited from this model.
  std::unique_ptr<DeepRestEstimator> Clone() const;

 private:
  // The test-side oracle (tests/testing/reference_graph.h) rebuilds every
  // step from elementary ops over these parameters.
  friend class ReferenceGraph;

  struct Expert {
    MetricKey key;
    Parameter* mask = nullptr;  // D x 1 learnable API-aware mask logits
    GruCell gru;                // recurrent core (use_recurrence)
    Linear ff;                  // feed-forward core (ablation)
    Linear head;                // (2H -> 3) output projection
    Linear skip;                // (D -> 3) linear bypass (use_linear_bypass)
    std::vector<float> initial_gru;  // snapshot at initialization (Fig. 21)
    double y_scale = 1.0;
  };

  // The chunk trainer's reusable buffers, defined in the trainer's private
  // header (src/core/estimator_train.h).
  struct TrainScratch;

  // Builds experts/attention for the given feature dim and resource list.
  void BuildModel(size_t feature_dim, const std::vector<MetricKey>& resources);
  // Shared training loop: chunked-BPTT quantile regression over a feature /
  // scaled-target series. Appends per-epoch losses to epoch_losses_.
  // `decay_masks` applies the sparsity pressure (initial training only).
  void RunTraining(const std::vector<std::vector<float>>& features,
                   const std::vector<std::vector<float>>& targets, size_t epochs,
                   float learning_rate, bool decay_masks);
  // One truncated-BPTT chunk over windows [begin, end), without a tape: the
  // forward on the packed layout (repacked from the current parameters
  // first), then a hand-written backward that adds every parameter's
  // gradient into the ParameterStore grads, which the caller zeroed.
  // Gradients and loss are bit-identical to the elementary-op graph's (the
  // tests' oracle). `hidden` (expert-major, StreamCursor::hidden's layout)
  // holds the state before `begin` and receives the state after `end - 1`.
  // Returns the chunk's mean pinball loss.
  float TrainChunk(const std::vector<std::vector<float>>& features,
                   const std::vector<std::vector<float>>& targets, size_t begin, size_t end,
                   std::vector<float>& hidden, TrainScratch& scratch);
  // Writes raw / feature_scale_ into `row` (feature_scale_.size() floats),
  // zero-filling the features a short `raw` lacks.
  void ScaleWindow(const std::vector<float>& raw, float* row) const;
  int ExpertIndex(const MetricKey& key) const;
  // Rebuilds the packed inference weights, then recomputes warm_hidden_ by
  // running learn_features_ through the packed forward from a zero state.
  // Called by every mutation point (Learn, ContinueLearning,
  // TransferRecurrentWeightsFrom, LoadFromStream) so the const inference
  // surface can read both caches lock-free.
  void RefreshWarmStartCache();
  // Rebuilds packed_, cores_ and packed_attention_ from the current
  // parameters and config_.
  void RefreshInferencePack();

  EstimatorConfig config_;
  FeatureExtractor extractor_;
  TraceSynthesizer synthesizer_;
  ParameterStore store_;
  std::vector<Expert> experts_;
  std::map<MetricKey, int> expert_index_;  // key -> experts_ position
  Parameter* alpha_ = nullptr;  // E x E attention weights
  Matrix diag_mask_;            // constant 0-diagonal / 1-elsewhere mask
  std::vector<float> feature_scale_;
  std::vector<std::vector<float>> learn_features_;  // raw, for warm start
  // Warm-start hidden state after learn_features_, in StreamCursor::hidden's
  // expert-major layout; zeros when warm_start is off.
  std::vector<float> warm_hidden_;
  // Derived weights of the batch-row-major forward (src/nn/batched.h) that
  // inference and the chunk trainer run on, parallel to experts_:
  // sigmoid(mask), the stacked transposed input block [Wz;Wk;Wh;skip]^T and
  // head^T. Not serialized; see RefreshInferencePack.
  std::vector<PackedExpert> packed_;
  // Every expert's [Uz;Uk]^T, Uh^T and gate bias in the lane layout.
  LaneCores cores_;
  Matrix packed_attention_;  // alpha . diag mask (E x E); empty without attention
  double train_seconds_ = 0.0;
  std::vector<float> epoch_losses_;
};

}  // namespace deeprest

#endif  // SRC_CORE_ESTIMATOR_H_

// The tests' single oracle: the DeepRest step composed from elementary ops
// on the tape (tensor.h, ops.h).
//
// Production runs the model without a tape: the packed batch-row-major
// forward behind every estimate, warm start and hidden trajectory
// (src/nn/batched.h), and the chunk trainer's hand-written BPTT
// (DeepRestEstimator::TrainChunk) on the same layout. Both must reproduce
// the compositions below bit for bit: forward values always, and every
// gradient under the training loss topology (each step's output feeds the
// loss). The oracle reads a model's plain parameters through TapeLeaves.
// Test-only: no target under src/, bench/ or tools/ links this library.
#ifndef TESTS_TESTING_REFERENCE_GRAPH_H_
#define TESTS_TESTING_REFERENCE_GRAPH_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/estimator.h"
#include "src/nn/layers.h"
#include "tests/testing/tensor.h"

namespace deeprest {

// A store's parameters bound to tape leaves: each value is copied into a
// leaf that tracks its gradient (zeroed, like the store's after ZeroGrad),
// found by the parameter it came from.
class TapeLeaves {
 public:
  explicit TapeLeaves(const ParameterStore& store);

  const Tensor& operator[](const Parameter& parameter) const;
  // Copies every leaf's gradient into its parameter's.
  void CopyGradients(ParameterStore& store) const;

 private:
  std::map<const Parameter*, Tensor> leaves_;
};

// One GRU step (paper Eq. 2) as ~12 elementary nodes over the cell's leaves:
//   z = sigmoid((Wz x + Uz h) + bz)    k = sigmoid((Wk x + Uk h) + bk)
//   h~ = tanh((Wh x + Uh (k . h)) + bh)    h' = z . h + (-1 . z + 1) . h~
Tensor GruStepReference(const TapeLeaves& leaves, const GruCell& gru, const Tensor& x,
                        const Tensor& h_prev);

// A fully connected layer: Add(MatMul(W, x), b).
Tensor LinearReference(const TapeLeaves& leaves, const Linear& layer, const Tensor& x);

// Cross-expert attention (paper Eq. 3):
// MatMul(Hadamard(alpha, diag_mask), StackColumns(hidden)).
Tensor AttentionReference(const Tensor& alpha, const Tensor& diag_mask,
                          const std::vector<Tensor>& hidden);

// One expert's output (paper Eq. 4): the head over
// ConcatRows(RowAsColumn(attended, row), h), plus the skip layer over xm
// when `skip` is non-null. An undefined `attended` (attention ablation)
// contributes a zero column.
Tensor ExpertHeadReference(const TapeLeaves& leaves, const Tensor& attended, size_t row,
                           const Tensor& h, const Linear& head, const Linear* skip,
                           const Tensor& xm);

// The configurations every bit-exactness suite covers, as (name, config)
// over `base`: the full model, then without attention, API mask, warm start,
// recurrence, bypass, and without both recurrence and bypass.
std::vector<std::pair<std::string, EstimatorConfig>> AblationGrid(const EstimatorConfig& base);

// Test-side peer of DeepRestEstimator, which befriends it: reads a model's
// parameters and history and runs them through the compositions above.
class ReferenceGraph {
 public:
  using FeatureSeries = std::vector<std::vector<float>>;

  // One model step over all experts from elementary ops on the model's
  // leaves. `hidden` is read and replaced.
  static std::vector<Tensor> StepAllReference(const DeepRestEstimator& model,
                                              const TapeLeaves& leaves, const Tensor& x,
                                              std::vector<Tensor>& hidden);
  // One zero H x 1 column per expert.
  static std::vector<Tensor> ZeroState(const DeepRestEstimator& model);

  // The warm-start state by replay: the learn history stepped through
  // StepAllReference from a zero state, flattened expert-major like
  // StreamCursor::hidden. Zeros when warm start is off.
  static std::vector<float> ReplayWarmStart(const DeepRestEstimator& model);
  // The cached warm-start state stateless rows of the packed forward start
  // from.
  static const std::vector<float>& WarmStartCache(const DeepRestEstimator& model);

  // Sequential inference: ReplayWarmStart's trajectory, then the query one
  // window at a time through StepAllReference, clamped like the packed path.
  static EstimateMap EstimateFromFeaturesReference(const DeepRestEstimator& model,
                                                   const FeatureSeries& features);

  // HiddenTrajectories by replay from a zero state through StepAllReference.
  static std::map<MetricKey, std::vector<float>> HiddenTrajectoriesReference(
      const DeepRestEstimator& model, const FeatureSeries& features);

  // --- Training-graph access ---
  static const FeatureSeries& LearnFeatures(const DeepRestEstimator& model);
  static ParameterStore& Parameters(DeepRestEstimator& model);
  // Per-expert targets for windows [from, to), scaled as Learn scales them.
  static std::vector<std::vector<float>> ScaledTargets(const DeepRestEstimator& model,
                                                       const MetricsStore& metrics, size_t from,
                                                       size_t to);
  // One BPTT chunk's mean pinball loss over windows [begin, end) as an
  // elementary-op graph over the model's leaves: `hidden` steps through
  // StepAllReference, and the per-window, per-expert pinball losses are
  // averaged by Affine(AddN(...)).
  static Tensor ChunkLoss(const DeepRestEstimator& model, const TapeLeaves& leaves,
                          const FeatureSeries& features,
                          const std::vector<std::vector<float>>& targets, size_t begin,
                          size_t end, std::vector<Tensor>& hidden);
  // The production chunk trainer (DeepRestEstimator::TrainChunk) on the same
  // chunk: adds every gradient into the store's (zeroed) grads, replaces
  // `hidden` (expert-major, E * H floats) with the state after the chunk and
  // returns the mean loss.
  static float TrainerChunk(DeepRestEstimator& model, const FeatureSeries& features,
                            const std::vector<std::vector<float>>& targets, size_t begin,
                            size_t end, std::vector<float>& hidden);
  // The whole training loop on the elementary graph: per chunk, fresh leaves
  // of the current parameters, truncated BPTT through ChunkLoss and Backward
  // and the leaves' gradients copied out, then the production ClipGradNorm,
  // Adam step and (with `decay_masks`) mask decay, appending each epoch's
  // mean loss to the model's epoch_losses(). The oracle for RunTraining; it
  // leaves the model's packed weights and warm-start state stale.
  static void RunTrainingReference(DeepRestEstimator& model, const FeatureSeries& features,
                                   const std::vector<std::vector<float>>& targets,
                                   size_t epochs, float learning_rate, bool decay_masks);

 private:
  // ReplayWarmStart's state as one H x 1 column per expert.
  static std::vector<Tensor> WarmState(const DeepRestEstimator& model,
                                       const TapeLeaves& leaves);
  // A raw feature vector scaled by the model's feature scales, as a column.
  static Tensor ScaledInput(const DeepRestEstimator& model, const std::vector<float>& raw);
};

}  // namespace deeprest

#endif  // TESTS_TESTING_REFERENCE_GRAPH_H_

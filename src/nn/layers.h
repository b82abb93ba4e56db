// Trainable parameters and the layers used by the DeepRest experts and the
// baselines.
//
// Threading contract
// ------------------
// A parameter is a plain value matrix and a plain gradient matrix, owned by
// one model's ParameterStore; nothing in src/nn keeps state shared across
// models or threads. The rules that follow:
//
//   * One model trains on one thread: a training step writes the model's
//     gradients and then its values in place, so no other thread may read or
//     write that model while it trains. To retrain a served model, train a
//     clone and swap it in (DeepRestEstimator::Clone, serve::ModelRegistry).
//   * Const inference is safe from any thread: it only reads parameter
//     values and works in buffers private to the call, so any number of
//     threads may evaluate one model at once (the serving layer in src/serve
//     fans estimates out across a worker pool this way).
//   * Distinct models train in parallel: their parameters are disjoint (the
//     eval harness's parallel pretraining relies on this).
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <deque>
#include <string>
#include <vector>

#include "src/nn/matrix.h"

namespace deeprest {

class Rng;

// One trainable parameter. The gradient is shaped like the value when the
// parameter is created; trainers add into it after ParameterStore::ZeroGrad.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
};

// Registry of named trainable parameters, in creation order. Layers register
// their weights here so that optimizers and the serializer see a flat list,
// and keep handles to them: creating a parameter never moves the existing
// ones, and neither does moving the store, so the handles stay valid for the
// store's lifetime.
class ParameterStore {
 public:
  // Registers a parameter with the given initial value and a zero gradient.
  Parameter& Create(const std::string& name, Matrix init);

  const std::deque<Parameter>& entries() const { return entries_; }
  std::deque<Parameter>& entries() { return entries_; }

  // Total scalar parameter count.
  size_t TotalParameters() const;
  // Finds a parameter by name; null if absent.
  Parameter* Find(const std::string& name);
  const Parameter* Find(const std::string& name) const;
  // Zeroes every parameter gradient.
  void ZeroGrad();

 private:
  std::deque<Parameter> entries_;
};

// Fully connected layer y = W x + b: its two parameters. The accessors are
// handles into the store that owns them, which a const layer does not make
// const.
class Linear {
 public:
  Linear() = default;
  Linear(ParameterStore& store, const std::string& name, size_t in_dim, size_t out_dim,
         Rng& rng);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  Parameter& weight() const { return *weight_; }  // out_dim x in_dim
  Parameter& bias() const { return *bias_; }      // out_dim x 1

 private:
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  Parameter* weight_ = nullptr;
  Parameter* bias_ = nullptr;
};

// Gated Recurrent Unit cell (paper Eq. 2), as its nine parameter blocks:
//   z_t = sigmoid(Wz x + Uz h + bz)
//   k_t = sigmoid(Wk x + Uk h + bk)
//   h~  = tanh(Wh x + Uh (k_t . h) + bh)
//   h_t = z_t . h_{t-1} + (1 - z_t) . h~
// The step and its backward run on the lane layout (src/nn/batched.h), where
// the estimator and the baselines pack these blocks; the tests' oracle
// composes the same step from elementary tape ops. Like Linear's, the
// accessors are handles into the owning store.
class GruCell {
 public:
  GruCell() = default;
  GruCell(ParameterStore& store, const std::string& name, size_t in_dim, size_t hidden_dim,
          Rng& rng);

  size_t in_dim() const { return in_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  Parameter& wz() const { return *wz_; }
  Parameter& uz() const { return *uz_; }
  Parameter& bz() const { return *bz_; }
  Parameter& wk() const { return *wk_; }
  Parameter& uk() const { return *uk_; }
  Parameter& bk() const { return *bk_; }
  Parameter& wh() const { return *wh_; }
  Parameter& uh() const { return *uh_; }
  Parameter& bh() const { return *bh_; }

  // Flattens all nine parameter blocks into one vector (used by the PCA
  // model-similarity analysis of paper Fig. 21).
  std::vector<float> FlattenedParameters() const;

 private:
  size_t in_dim_ = 0;
  size_t hidden_dim_ = 0;
  Parameter* wz_ = nullptr;
  Parameter* uz_ = nullptr;
  Parameter* bz_ = nullptr;
  Parameter* wk_ = nullptr;
  Parameter* uk_ = nullptr;
  Parameter* bk_ = nullptr;
  Parameter* wh_ = nullptr;
  Parameter* uh_ = nullptr;
  Parameter* bh_ = nullptr;
};

}  // namespace deeprest

#endif  // SRC_NN_LAYERS_H_

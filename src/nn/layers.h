// Trainable layers used by the DeepRest experts and the baselines.
#ifndef SRC_NN_LAYERS_H_
#define SRC_NN_LAYERS_H_

#include <string>
#include <vector>

#include "src/nn/ops.h"
#include "src/nn/tensor.h"

namespace deeprest {

class Rng;

// Registry of named trainable parameters. Layers register their weights here
// so that optimizers and the serializer see a flat list.
class ParameterStore {
 public:
  // Registers a fresh parameter tensor with the given initial value.
  Tensor Create(const std::string& name, Matrix init);

  struct Entry {
    std::string name;
    Tensor tensor;
  };
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& entries() { return entries_; }

  // Total scalar parameter count.
  size_t TotalParameters() const;
  // Finds a parameter by name; returns an undefined Tensor if absent.
  Tensor Find(const std::string& name) const;
  // Zeroes every parameter gradient.
  void ZeroGrad();

 private:
  std::vector<Entry> entries_;
};

// Fully connected layer: y = W x + b with x a column vector.
class Linear {
 public:
  Linear() = default;
  Linear(ParameterStore& store, const std::string& name, size_t in_dim, size_t out_dim,
         Rng& rng);

  Tensor Forward(const Tensor& x) const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  Tensor weight_;
  Tensor bias_;
};

// Gated Recurrent Unit cell (paper Eq. 2):
//   z_t = sigmoid(Wz x + Uz h + bz)
//   k_t = sigmoid(Wk x + Uk h + bk)
//   h~  = tanh(Wh x + Uh (k_t . h) + bh)
//   h_t = z_t . h_{t-1} + (1 - z_t) . h~
class GruCell {
 public:
  GruCell() = default;
  GruCell(ParameterStore& store, const std::string& name, size_t in_dim, size_t hidden_dim,
          Rng& rng);

  // One recurrence step; x is (in_dim x 1), h_prev is (hidden_dim x 1).
  // Builds a single fused graph node (FusedGruStep), bit-identical in values
  // and gradients to the same step composed of ~12 elementary ops (the test
  // oracle GruStepReference, tests/testing/reference_graph.h).
  Tensor Step(const Tensor& x, const Tensor& h_prev) const;

  // Fresh zero hidden state.
  Tensor InitialState() const;

  size_t in_dim() const { return in_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  // Read access to the nine parameter blocks, which the estimator packs into
  // the batch-row-major weights (src/nn/batched.h) its inference and its
  // tape-free trainer run the same recurrence on as a few mat-mat GEMMs, and
  // which the test oracle composes from elementary ops.
  const Tensor& wz() const { return wz_; }
  const Tensor& uz() const { return uz_; }
  const Tensor& bz() const { return bz_; }
  const Tensor& wk() const { return wk_; }
  const Tensor& uk() const { return uk_; }
  const Tensor& bk() const { return bk_; }
  const Tensor& wh() const { return wh_; }
  const Tensor& uh() const { return uh_; }
  const Tensor& bh() const { return bh_; }

  // Flattens all nine parameter blocks into one vector (used by the PCA
  // model-similarity analysis of paper Fig. 21).
  std::vector<float> FlattenedParameters() const;

 private:
  size_t in_dim_ = 0;
  size_t hidden_dim_ = 0;
  Tensor wz_, uz_, bz_;
  Tensor wk_, uk_, bk_;
  Tensor wh_, uh_, bh_;
};

}  // namespace deeprest

#endif  // SRC_NN_LAYERS_H_

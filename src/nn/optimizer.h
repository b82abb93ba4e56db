// First-order optimization over a ParameterStore.
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <vector>

#include "src/nn/layers.h"

namespace deeprest {

// Rescales all gradients so their global L2 norm is at most max_norm.
// Returns the pre-clip norm.
float ClipGradNorm(ParameterStore& store, float max_norm);

// Adam optimizer, the trainer of every model here; it converges faster than
// the paper's SGD on the small simulated datasets, over the same loss.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(ParameterStore& store, float learning_rate, float beta1 = 0.9f,
                         float beta2 = 0.999f, float epsilon = 1e-8f);

  void Step();
  void ZeroGrad() { store_->ZeroGrad(); }

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

 private:
  ParameterStore* store_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int step_count_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace deeprest

#endif  // SRC_NN_OPTIMIZER_H_

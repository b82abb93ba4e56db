// Internal kernel-table interface between the dispatch layer and the
// per-ISA translation units. Not for use outside src/nn/simd/.
#ifndef SRC_NN_SIMD_KERNELS_H_
#define SRC_NN_SIMD_KERNELS_H_

#include <cmath>
#include <cstddef>

#include "src/nn/simd/dispatch.h"
#include "src/nn/simd/nonlinear.h"

namespace deeprest {
namespace simd {
namespace detail {

// One function pointer per kernel entry point (signatures mirror
// dispatch.h). A translation unit that is compiled without support for its
// ISA (e.g. kernels_neon.cc on x86) returns nullptr from its Table()
// function, and the dispatch layer skips that rung.
struct KernelTable {
  void (*matmul)(const float* a, const float* b, float* out, size_t n, size_t k, size_t m);
  void (*acc_atb)(const float* a, const float* b, float* out, size_t n, size_t p, size_t q);
  void (*acc_abt)(const float* a, const float* b, float* out, size_t n, size_t k, size_t m);
  void (*add)(const float* a, const float* b, float* out, size_t n);
  void (*axpby)(const float* a, const float* b, float scale, float* out, size_t n);
  void (*hadamard)(const float* a, const float* b, float* out, size_t n);
  void (*adam_step)(const float* grad, float* m, float* v, float* value, size_t n,
                    const AdamStepParams& params);
  void (*sigmoid)(const float* a, float* out, size_t n);
  void (*tanh)(const float* a, float* out, size_t n);
  void (*lane_accumulate)(const float* a, const float* w, float* out, size_t k, size_t m,
                          size_t lanes);
};

// One element of AdamStep in the order dispatch.h documents: the scalar
// rung's loop body and the vector rungs' tail.
inline void AdamElement(float g, float& m, float& v, float& value, const AdamStepParams& p) {
  m = p.beta1 * m + (1.0f - p.beta1) * g;
  v = p.beta2 * v + (1.0f - p.beta2) * g * g;
  const float m_hat = m / p.bias1;
  const float v_hat = v / p.bias2;
  value -= p.learning_rate * m_hat / (std::sqrt(v_hat) + p.epsilon);
}

// The scalar bodies' loops: the scalar and NEON rungs' kernels.
inline void SigmoidLoop(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SigmoidBody(a[i]);
  }
}

inline void TanhLoop(const float* a, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = TanhfBody(a[i]);
  }
}

// LaneAccumulate as plain loops: for each output row j, the k terms in
// ascending c, each lane's chain seeded from out. The scalar and NEON rungs'
// kernel and the vector rungs' lane tail.
inline void LaneAccumulateLoop(const float* a, const float* w, float* out, size_t k, size_t m,
                               size_t lanes, size_t first_lane) {
  for (size_t j = 0; j < m; ++j) {
    float* orow = out + j * lanes;
    for (size_t c = 0; c < k; ++c) {
      const float* arow = a + c * lanes;
      const float* wrow = w + (c * m + j) * lanes;
      for (size_t l = first_lane; l < lanes; ++l) {
        orow[l] += arow[l] * wrow[l];
      }
    }
  }
}

// Each returns a pointer to a static table, or nullptr when the ISA was not
// compiled in (wrong architecture). Host *runtime* support is the dispatch
// layer's job, not these.
const KernelTable* ScalarTable();
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();
const KernelTable* NeonTable();

}  // namespace detail
}  // namespace simd
}  // namespace deeprest

#endif  // SRC_NN_SIMD_KERNELS_H_

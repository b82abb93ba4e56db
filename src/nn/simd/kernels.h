// Internal kernel-table interface between the dispatch layer and the
// per-ISA translation units. Not for use outside src/nn/simd/.
#ifndef SRC_NN_SIMD_KERNELS_H_
#define SRC_NN_SIMD_KERNELS_H_

#include <cstddef>

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
};

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

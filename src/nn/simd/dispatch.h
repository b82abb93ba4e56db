// Runtime ISA dispatch for the explicitly vectorized kernels.
//
// The repo's portability stance (CMakeLists: -march=native is opt-in and OFF
// by default) means one binary must run correctly on whatever CPU a pod
// lands on — so vector kernels are selected at runtime, not compile time.
// Every ISA variant is compiled into the binary behind per-function target
// attributes (src/nn/simd/kernels_*.cc); this header is the selection layer:
//
//   ladder:   kAvx512 > kAvx2 > kScalar   (x86)
//             kNeon   > kScalar           (aarch64)
//
// BestSupportedIsa() probes the host once (CPUID via __builtin_cpu_supports
// on x86; compile-time on ARM) and ActiveIsa() starts there. ForceIsa()
// requests a specific rung and FALLS BACK DOWN the ladder when the host (or
// the build) lacks it — forcing kAvx512 on an AVX2-only box lands on kAvx2,
// never on an illegal-instruction crash. The DEEPREST_SIMD environment
// variable ("scalar", "avx2", "avx512", "neon", "auto") applies the same
// clamped forcing at first use, which is how CI pins the portable fallback
// path (tools/ci.sh simd-off leg).
//
// Numerics contract (tested in tests/nn/simd_kernels_test.cc):
//   * Every kernel but the GEMV is EXACT: bit-identical to plain C++ loops
//     on every rung. Lanes and blocks span only independent output
//     elements, never a reduction: each element keeps its reduction in
//     ascending order and rounds every multiply and add separately (no FMA
//     contraction). That covers mat-mat MatMul, AccumulateATransposeB, the
//     element-wise kernels and AdamStep (whose divides and square root are
//     correctly rounded on every rung), and AccumulateABTranspose: its
//     lanes hold output columns, and each lane's double chain starts at +0
//     and adds the exact float x float products in ascending k, the scalar
//     rung's order, so each add is its only rounding (a rank-1 k == 1 update
//     multiplies, adds +0 and adds). LaneAccumulate's lanes are independent
//     problems, each a chain in ascending c from out's value.
//   * Sigmoid and Tanh are EXACT against owned scalar bodies
//     (src/nn/simd/nonlinear.h), which reproduce glibc 2.36's expf and tanhf
//     on every input. The vector rungs evaluate the bodies' operations lane
//     by lane. The exp body is the one place where multiplies and adds are
//     fused on purpose: explicitly, with std::fma and fmadd, exactly where
//     glibc's FMA build fuses them (-ffp-contract=off stays global). So the
//     model's nonlinearities no longer depend on the host's libm or on
//     which ifunc variant it picks. At baseline x86-64 std::fma is a libm
//     call, which makes the scalar rung's sigmoid ~3x slower than glibc's.
//   * The GEMV (MatMul with m == 1) is the one kernel that reduces across
//     lanes: the vector rungs reassociate its dot products with FMA and are
//     ULP-BOUNDED against the reference, not bit-exact. The scalar rung
//     reduces in sequential order, so KernelMode::kTiled, which keeps the
//     bit-exactness contract training determinism relies on, runs the GEMV
//     on the scalar rung (ScalarGemv); only the opt-in KernelMode::kSimd
//     sends it to the active rung.
//
// Raw intrinsics live ONLY under src/nn/simd/ (lint rule
// intrinsics-only-in-simd); the rest of the tree calls through the function
// table below.
#ifndef SRC_NN_SIMD_DISPATCH_H_
#define SRC_NN_SIMD_DISPATCH_H_

#include <cstddef>
#include <string>

namespace deeprest {
namespace simd {

enum class Isa : int {
  kScalar = 0,  // portable C++, always available
  kAvx2 = 1,    // AVX2 + FMA (x86)
  kAvx512 = 2,  // AVX-512F (x86)
  kNeon = 3,    // ARM NEON / ASIMD
};

// Human-readable name ("scalar", "avx2", ...), for startup summaries and
// bench rows.
const char* IsaName(Isa isa);

// True when this host can execute `isa` AND the binary carries kernels for
// it. kScalar is always supported.
bool IsaSupported(Isa isa);

// The highest supported rung of the ladder on this host.
Isa BestSupportedIsa();

// The ISA the kSimd kernels currently dispatch to. Initialized on first use
// to BestSupportedIsa(), unless DEEPREST_SIMD names a rung (clamped the same
// way ForceIsa clamps). Global, not thread-local — flip it only in
// single-threaded setup code, like SetKernelMode.
Isa ActiveIsa();

// Requests `wanted` and returns what was actually selected: `wanted` when
// supported, otherwise the nearest supported rung BELOW it (x86 ladder
// kAvx512 -> kAvx2 -> kScalar; kNeon falls back to kScalar on non-ARM).
Isa ForceIsa(Isa wanted);

// Parses a spec string ("auto", "scalar", "avx2", "avx512", "neon") and
// applies it via ForceIsa ("auto" re-selects BestSupportedIsa). Returns
// false (selection unchanged) on an unknown spec. This is the single entry
// point behind both the DEEPREST_SIMD environment variable and the CLI
// --isa flag, so tests can exercise the env path in-process.
bool SelectIsaFromSpec(const std::string& spec);

// Resets the selection to the first-use default (DEEPREST_SIMD if set and
// valid, else BestSupportedIsa).
void ResetIsa();

// ---- Kernel entry points ----
// All matrices are dense row-major float buffers. Dispatch reads ActiveIsa()
// per call through a cached table lookup (two loads; noise next to a GEMM).

// out = a(n x k) * b(k x m). Overwrites out.
void MatMul(const float* a, const float* b, float* out, size_t n, size_t k, size_t m);
// out(p x q) += a(n x p)^T * b(n x q).
void AccumulateATransposeB(const float* a, const float* b, float* out, size_t n, size_t p,
                           size_t q);
// out(n x m) += a(n x k) * b(m x k)^T.
void AccumulateABTranspose(const float* a, const float* b, float* out, size_t n, size_t k,
                           size_t m);

// Element-wise kernels (bit-exact on every ISA: one rounding per element).
// out[i] = a[i] + b[i]
void Add(const float* a, const float* b, float* out, size_t n);
// out[i] = a[i] + scale * b[i]
void Axpby(const float* a, const float* b, float scale, float* out, size_t n);
// out[i] = a[i] * b[i]
void Hadamard(const float* a, const float* b, float* out, size_t n);

// One Adam step's scalars; bias1 and bias2 are 1 - beta1^t and 1 - beta2^t
// at step t.
struct AdamStepParams {
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float learning_rate = 0.0f;
  float epsilon = 0.0f;
  float bias1 = 1.0f;
  float bias2 = 1.0f;
};
// Adam's update of n parameters, element-wise, each operation rounded
// separately in this order:
//   m = beta1 * m + (1 - beta1) * g
//   v = beta2 * v + ((1 - beta2) * g) * g
//   value -= (learning_rate * (m / bias1)) / (sqrt(v / bias2) + epsilon)
void AdamStep(const float* grad, float* m, float* v, float* value, size_t n,
              const AdamStepParams& params);

// Every float sigmoid and tanh of the model, with the bits of the scalar
// bodies in nonlinear.h (glibc 2.36's expf and tanhf) on every rung:
// out[i] = 1 / (1 + exp(-a[i])) and out[i] = tanh(a[i]). out may be a.
void Sigmoid(const float* a, float* out, size_t n);
void Tanh(const float* a, float* out, size_t n);

// One GEMV per lane, for `lanes` independent problems stored lane-minor:
//   out[j·L + l] += sum over c ascending of a[c·L + l] · w[(c·m + j)·L + l]
// for j < m and l < L = lanes. Each lane's chain starts from out's value and
// rounds every multiply and add separately, so on a zeroed out it is
// MatMulInto's ascending-k chain from +0 (a 1 x k row times a k x m matrix),
// and otherwise AccumulateATransposeB's with q = 1. The packed forward's
// lanes are experts (src/nn/batched.h).
void LaneAccumulate(const float* a, const float* w, float* out, size_t k, size_t m,
                    size_t lanes);

// The scalar rung's GEMV (out = a(n x k) * b(k x 1)), whatever rung is
// active. The vector rungs reduce it across lanes; the scalar rung reduces
// in sequential order, so KernelMode::kTiled (the exact mode) runs it here
// instead of on the active rung.
void ScalarGemv(const float* a, const float* b, float* out, size_t n, size_t k);

}  // namespace simd
}  // namespace deeprest

#endif  // SRC_NN_SIMD_DISPATCH_H_

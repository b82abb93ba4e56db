// Batch-row-major, forward-only DeepRest kernels over packed inference
// weights.
//
// Every activation is a row-major matrix with one row per (query, window)
// pair, and each expert's weights are packed once per model, transposed and
// stacked (PackedExpert), so an expert's work over a block of pairs is four
// mat-mat GEMMs:
//
//   gates = xm · [Wz;Wk;Wh;skip]^T   (P x D)  * (D x (3H+3))  once per block
//   rec   = h  · [Uz;Uk]^T           (B x H)  * (H x 2H)      per window
//   cand  = (k.h) · Uh^T             (B x H)  * (H x H)       per window
//   y     = [a ; h] · head^T         (P x 2H) * (2H x 3)      once per block
//
// Only the recurrent core depends on the previous window, so only it steps
// per window, over the B rows still running. Cross-expert attention over
// every expert's state is one more GEMM on the stacked state trajectory
// S (E x P·H, expert i's hidden row r at pair p at S(i, p·H + r)):
// attended = masked_alpha (E x E) · S. The weights stream through the cache
// once per block instead of once per query and window. These kernels
// operate on plain Matrix values (no autograd graph, no TensorNode
// allocation). DeepRestEstimator::EstimateFromFeaturesBatchResume runs them
// over blocks of windows for a batch of queries; the chunk trainer
// (src/core/estimator_train.cc) runs them over a BPTT chunk of one series.
//
// Bit-exactness contract: every scalar these kernels produce for query b is
// computed by the SAME sequence of float operations the elementary-op step
// (the tests' oracle, tests/testing/reference_graph.h) performs for that
// query alone. Every GEMM output element is an ascending-k chain of
// separately rounded multiplies and adds starting from 0 — the order
// MatMulInto keeps on both its GEMV and its mat-mat paths — and IEEE
// multiplication is commutative, so (x · W^T)(b, j) equals (W · x)(j) bit
// for bit. Stacking gates, stacking rows from several windows, or padding
// the head input with a zero attended half changes which elements compute
// together, never how one rounds. The
// element-wise arithmetic copies the oracle's association term for term
// (e.g. sigmoid((Wx + Uh) + b) and (head + hb) + (skip + sb)). Rows never
// interact, so a width-B batch returns, per query, the exact bits the
// width-1 path returns. batched_inference_test.cc enforces this.
#ifndef SRC_NN_BATCHED_H_
#define SRC_NN_BATCHED_H_

#include <cstddef>
#include <vector>

#include "src/nn/matrix.h"

namespace deeprest {

// One expert's inference weights, packed (transposed and stacked) for the
// batch-row-major step. Derived from the trained parameters, never
// serialized.
struct PackedExpert {
  size_t hidden = 0;     // H
  bool recurrent = true;  // GRU core; false = feed-forward tanh core
  Matrix mask;      // 1 x D sigmoid(mask logits); empty = no API mask
  // Input block, G = 3H (GRU: z, k, h~ gates) or H (feed-forward core),
  // plus 3 bypass columns when skip_b is non-empty.
  Matrix w_in;      // D x G
  Matrix bias;      // 3H x 1 [bz;bk;bh], or H x 1 feed-forward bias
  Matrix u_zk;      // H x 2H [Uz;Uk]^T (GRU only)
  Matrix u_h;       // H x H Uh^T (GRU only)
  Matrix head;      // 2H x 3 head^T
  Matrix head_b;    // 3 x 1
  Matrix skip_b;    // 3 x 1; empty = no linear bypass
};

// Scratch buffers reused across steps so the steady-state step makes no
// allocator calls. One instance per estimation call; not thread-safe.
struct PackedScratch {
  Matrix xm;                // P x D masked input
  Matrix gates;             // P x G input-block products
  Matrix h, rec, z, k, hc, kh, cand;  // GRU internals (B x H, rec is B x 2H)
  Matrix concat;            // P x 2H head input [attended ; hidden]
  Matrix y;                 // P x 3 head output
};

// The h-independent half of a step, for any number of rows: x~ = sigmoid(m)
// . x (Eq. 1) into `xm` (untouched without an API mask, where x~ is `x`),
// then gates = x~ · w_in as one GEMM. Inference runs it once per block of
// windows, the trainer once per BPTT chunk.
void PackedInputBlock(const PackedExpert& p, const Matrix& x, Matrix& xm, Matrix& gates);

// The recurrent half: advances the core one window for B rows whose
// input-block products are `gates` (B rows of w_in.cols() floats). `state`
// (B x H) is read and overwritten. A GRU core leaves the step's internals in
// `s` — h (the previous state), z, k, hc (h~) and kh (k . h), each B x H —
// which the trainer saves for its backward pass.
void PackedCoreStep(const PackedExpert& p, const float* gates, float* state, size_t batch,
                    PackedScratch& s);

// bypass(b, j) = (skip · x~)(b, j) + skip_b[j], read from the bypass columns
// of `gates` (B rows of w_in.cols() floats) into `bypass` (B x 3).
void PackedBypass(const PackedExpert& p, const float* gates, size_t batch, float* bypass);

// One expert's output heads (paper Eq. 4) for B rows:
// s.y(b, j) = ([a ; h] · head^T)(b, j) + head_b[j] (+ bypass(b, j)).
// `attended` is the expert's B x H block of the attention product, or null
// under the attention ablation (the attended half of the input is zero).
void PackedExpertHead(const PackedExpert& p, const float* attended, const float* state,
                      const float* bypass, size_t batch, PackedScratch& s);

// Packing helpers; both reuse out's storage. Blocks share a width.
// out = [b0; b1; ...]: the rows of every block, top to bottom.
void StackRowsInto(const std::vector<const Matrix*>& blocks, Matrix& out);
// out = [b0; b1; ...]^T.
void StackTransposedInto(const std::vector<const Matrix*>& blocks, Matrix& out);

}  // namespace deeprest

#endif  // SRC_NN_BATCHED_H_

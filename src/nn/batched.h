// Batch-row-major, forward-only DeepRest step over packed inference weights.
//
// Batch-major inference answers B concurrent queries in one pass. Every
// activation is a (B x dim) row-major matrix — query b's values are row b —
// and each expert's weights are packed once per model, transposed and
// stacked (PackedExpert), so one expert's window is four mat-mat GEMMs:
//
//   gates = xm · [Wz;Wk;Wh;skip]^T   (B x D)  * (D x (3H+3))
//   rec   = h  · [Uz;Uk]^T           (B x H)  * (H x 2H)
//   cand  = (k.h) · Uh^T             (B x H)  * (H x H)
//   y     = [a ; h] · head^T         (B x 2H) * (2H x 3)
//
// and cross-expert attention over every expert's state is one more, on the
// stacked state S (E x B·H, expert i's hidden row r of query b at
// S(i, b·H + r)): attended = masked_alpha (E x E) · S. The weights stream
// through the cache once per step instead of once per query. These kernels
// operate on plain Matrix values (no autograd graph, no TensorNode
// allocation). Training runs on them too: the chunk trainer
// (src/core/estimator_train.cc) computes the input block once per BPTT chunk
// and steps only the recurrent core per window.
//
// Bit-exactness contract: every scalar these kernels produce for query b is
// computed by the SAME sequence of float operations the elementary-op step
// (the tests' oracle, tests/testing/reference_graph.h) performs for that
// query alone. Every GEMM output element is an ascending-k chain of
// separately rounded multiplies and adds starting from 0 — the order
// MatMulInto keeps on both its GEMV and its mat-mat paths — and IEEE
// multiplication is commutative, so (x · W^T)(b, j) equals (W · x)(j) bit
// for bit. Stacking gates or padding the head input with a zero attended
// half changes which elements compute together, never how one rounds. The
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
  Matrix xm;                // B x D masked input
  Matrix gates;             // B x G input-block products
  Matrix h, rec, z, k, hc, kh, cand;  // GRU internals (B x H, rec is B x 2H)
  Matrix concat;            // B x 2H head input [attended ; hidden]
  Matrix y;                 // B x 3 head output
};

// Advances one expert by one window for the B rows of `x` (B x D scaled
// features). `state` is the expert's B x H hidden block (its row of the
// stacked state), read and overwritten in place. When the expert has a
// bypass, `bypass` (B x 3, row-major) receives (skip · x~ + skip_b) for
// PackedExpertHead; otherwise it is unused and may be null. Composes the
// three functions below.
void PackedExpertStep(const PackedExpert& p, const Matrix& x, float* state, float* bypass,
                      PackedScratch& s);

// The h-independent half of a step, for any number of rows: x~ = sigmoid(m)
// . x (Eq. 1) into `xm` (untouched without an API mask, where x~ is `x`),
// then gates = x~ · w_in as one GEMM. The trainer runs it once per BPTT
// chunk with one row per window.
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

// Keeps the leading `new_cols` columns of `m` in place (row-major
// compaction). Used to shrink the stacked state as shorter queries finish:
// queries are ordered longest-first, so the still-active ones always occupy
// a prefix of every expert's row.
void ShrinkColumns(Matrix& m, size_t new_cols);

}  // namespace deeprest

#endif  // SRC_NN_BATCHED_H_

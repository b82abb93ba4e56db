// Batch-row-major DeepRest kernels over packed weights, and the GRU step's
// hand-written backward every trainer shares.
//
// Every activation is a row-major matrix with one row per (query, window)
// pair, and each expert's input block and heads are packed once per model,
// transposed and stacked (PackedExpert), so an expert's work over a block of
// pairs is two mat-mat GEMMs:
//
//   gates = xm · [Wz;Wk;Wh;skip]^T   (P x D)  * (D x (3H+3))  once per block
//   y     = [a ; h] · head^T         (P x 2H) * (2H x 3)      once per block
//
// Only the recurrent core depends on the previous window, so only it steps
// per window. It steps every expert at once (LaneCoreStep), one row at a
// time, in the lane layout of LaneCores: the gate columns move into that
// layout once per block (GatesToLanes), and each window makes one
// simd::LaneAccumulate call for every expert's [Uz;Uk]·h, one for Uh·(k.h)
// and one simd::Sigmoid / simd::Tanh call over E·2H / E·H gates. Cross-expert
// attention over every expert's state is one more GEMM on the stacked state
// trajectory S (E x P·H, expert i's hidden row r at pair p at S(i, p·H + r)):
// attended = masked_alpha (E x E) · S. The weights stream through the cache
// once per block instead of once per query and window. These kernels
// operate on plain Matrix values. DeepRestEstimator::
// EstimateFromFeaturesBatchResume runs them over blocks of windows for a
// batch of queries; the chunk trainer (src/core/estimator_train.cc) runs
// them over a BPTT chunk of one series, and the resource-aware DL baseline
// (src/baselines) steps its GRUs on LaneCoreStep too, in a one-lane core.
//
// Training keeps the whole pass in the lane layout. The forward writes each
// window's internals straight into its row of a LaneTape, and the backward
// (LaneCoreStepBackward) runs each window newest first for every expert at
// once: element-wise simd passes over H·L floats for the gate gradients and
// one LaneAccumulate per recurrent weight for dh's chain. Only the weight
// sums, which are GEMMs over the pass's rows, read the tape in the expert
// layout, after one bulk transpose per matrix per pass (LanesToExperts).
//
// Bit-exactness contract: every scalar these kernels produce for query b is
// computed by the SAME sequence of float operations the elementary-op step
// (the tests' oracle, tests/testing/reference_graph.h) performs for that
// query alone. Every GEMM output element is an ascending-k chain of
// separately rounded multiplies and adds starting from 0 — the order
// MatMulInto keeps on both its GEMV and its mat-mat paths, and the order
// simd::LaneAccumulate keeps in every lane on a zeroed buffer — and IEEE
// multiplication is commutative, so (x · W^T)(b, j) equals (W · x)(j) bit
// for bit. Stacking gates, stacking rows from several windows, padding the
// head input with a zero attended half, or giving each expert a lane
// changes which elements compute together, never how one rounds. The
// element-wise arithmetic copies the oracle's association term for term
// (e.g. sigmoid((Wx + Uh) + b) and (head + hb) + (skip + sb)), and every
// sigmoid and tanh, the oracle's included, is simd::Sigmoid / simd::Tanh.
// Rows never interact, so a width-B batch returns, per query, the exact bits
// the width-1 path returns. batched_inference_test.cc enforces this.
#ifndef SRC_NN_BATCHED_H_
#define SRC_NN_BATCHED_H_

#include <cstddef>
#include <vector>

#include "src/nn/layers.h"
#include "src/nn/matrix.h"

namespace deeprest {

// One expert's inference weights, packed (transposed and stacked) for the
// batch-row-major input block and heads. Derived from the trained
// parameters, never serialized. The recurrent cores of all experts are
// packed together in LaneCores.
struct PackedExpert {
  size_t hidden = 0;  // H
  Matrix mask;        // 1 x D sigmoid(mask logits); empty = no API mask
  // Input block: the G gate columns (G = 3H, the GRU's z, k and h~ gates, or
  // H for the feed-forward core), plus 3 bypass columns when skip_b is
  // non-empty.
  Matrix w_in;    // D x (G or G + 3)
  Matrix head;    // 2H x 3 head^T
  Matrix head_b;  // 3 x 1
  Matrix skip_b;  // 3 x 1; empty = no linear bypass
};

// Every expert's recurrent core in the lane layout: element r of expert i's
// state, gates or bias sits at r·L + i, where the lane count L is E rounded
// up to a multiple of 16 (LaneCount). One call of each kernel then steps all
// E experts: simd::LaneAccumulate computes U·h with one lane per expert, and
// the gate math runs on rows of E·H. The padded lanes E..L-1 carry zero
// weights, zero bias and zero gates, so their state stays exactly 0:
// sigmoid(0)·0 + (1 - sigmoid(0))·tanh(0) = 0. Derived from the trained
// parameters, never serialized.
struct LaneCores {
  size_t experts = 0;      // E
  size_t lanes = 0;        // L
  size_t hidden = 0;       // H
  bool recurrent = true;   // GRU core; false = feed-forward tanh core
  Matrix u_zk;  // (H·2H) x L: [Uz;Uk]^T, entry (c, j) of expert i at (c·2H + j, i)
  Matrix u_h;   // (H·H) x L: Uh^T, entry (c, j) of expert i at (c·H + j, i)
  Matrix bias;  // gates() x L: [bz;bk;bh], or the feed-forward bias

  // Gate rows per lane: 3H for the GRU, H for the feed-forward core.
  size_t gates() const { return recurrent ? 3 * hidden : hidden; }
};

// E rounded up to a multiple of 16: one AVX-512 register of lanes.
size_t LaneCount(size_t experts);

// Sizes `cores` for E experts of H units on `lanes` lanes (LaneCount(E), or
// any count from E up: the kernels mask a partial register) and zeroes every
// weight and bias, so the lanes no expert is packed into stay 0.
void ResetLaneCores(size_t experts, size_t lanes, size_t hidden, bool recurrent,
                    LaneCores& cores);

// Puts a GRU's [Uz;Uk]^T, Uh^T and [bz;bk;bh] into lane i of `cores`.
// `stacked` is scratch.
void PackGruLane(const GruCell& gru, size_t i, LaneCores& cores, Matrix& stacked);

// Puts one expert's block into its lane: lanes(f, i) = block[f] for every
// entry f of the row-major block, e.g. [Uz;Uk]^T (c, j) into row c·2H + j.
void PackLane(const Matrix& block, size_t i, Matrix& lanes);

// Scratch buffers reused across calls so the steady state makes no
// allocator calls. One instance per estimation call; not thread-safe.
struct PackedScratch {
  Matrix xm;      // P x D masked input
  Matrix concat;  // P x 2H head input [attended ; hidden]
  Matrix y;       // P x 3 head output
};

// Every expert's core over a pass of T windows, in the lane layout, as
// LaneCoreStep leaves it: row r of each matrix is one window's step (a
// trainer's rows run newest first, so its sums over windows walk rows in
// order), and element c of expert i sits at c·L + i of the row. The GRU's
// rows are h (the step's previous state), z | k, h~ and k . h; the
// feed-forward core's output is its h~ row. The backward reads the rows
// in place. Inference keeps a one-row tape as the step's scratch.
struct LaneTape {
  Matrix h;     // T x H·L
  Matrix zk;    // T x 2H·L: z, then k
  Matrix hc;    // T x H·L
  Matrix kh;    // T x H·L
  Matrix omz;   // H x L: 1 - z, then (1 - z) . h~
  Matrix ones;  // H x L of 1, which the backward reads too

  // Shapes the rows for T windows of `cores`' step.
  void Resize(size_t steps, const LaneCores& cores);
};

// The h-independent half of a step, for any number of rows: x~ = sigmoid(m)
// . x (Eq. 1) into `xm` (untouched without an API mask, where x~ is `x`),
// then gates = x~ · w_in as one GEMM. Inference runs it once per block of
// windows, the trainer once per BPTT chunk.
void PackedInputBlock(const PackedExpert& p, const Matrix& x, Matrix& xm, Matrix& gates);

// Moves the gate columns of every expert into the lane layout:
// out(p, j·L + i) = gates[i](p, j) for the first g columns of every row p
// (the bypass columns stay behind), zero in the padded lanes. gates[i] is
// expert i's P x (g or g + 3) input-block product.
void GatesToLanes(const std::vector<const Matrix*>& gates, size_t g, size_t lanes, Matrix& out);

// Moves `rows` floats of every expert between the expert layout (expert i's
// floats at expert[i·stride, i·stride + rows)) and the lane layout (float q
// of expert i at lanes[q·L + i]): one H-row state, or a pass's T·H rows.
// The padded lanes are left as they are.
void ExpertsToLanes(const float* expert, size_t stride, size_t rows, const LaneCores& cores,
                    float* lanes);
void LanesToExperts(const float* lanes, size_t rows, const LaneCores& cores, float* expert,
                    size_t stride);
// The same move out of the lane layout, expert i's floats at experts[i].
void LanesToExperts(const float* lanes, size_t rows, const LaneCores& cores,
                    const std::vector<float*>& experts);

// Advances every expert's core one window for one row whose input-block
// products are `gates` (cores.gates() x L, lane layout), saving the step's
// internals in row r of `tape`. `state` (H x L) is read and overwritten.
// The association of every operation is the oracle's GRU step's:
// z | k = sigmoid((Wx + U·h) + b), h~ = tanh((Wx + Uh·(k.h)) + bh),
// h' = (z.h) + ((-1·z + 1).h~); the feed-forward core is tanh(Wx + b).
void LaneCoreStep(const LaneCores& cores, const float* gates, float* state, LaneTape& tape,
                  size_t r);

// ---- The core's backward, shared by every trainer ----
//
// BPTT by hand, after the cuDNN RNN recipe (Appleyard et al., 2016): the
// forward saves each step's internals (LaneTape), the backward runs the
// steps newest first and carries only dh between them, and every weight
// gradient is one sum over the pass's rows. Like the forward, the backward
// steps every expert at once in the lane layout: each lane is one expert's
// problem, and each element-wise pass and simd::LaneAccumulate call spans
// all of them. The arithmetic is the reverse sweep of the elementary-op GRU
// step (the tests' oracle, tests/testing/reference_graph.h) under a loss
// every step feeds, so the gradients are bit-identical to it: each buffer
// starts at +0, takes the graph's contributions in the graph's order, and
// rounds them where the graph stored them.

// The backward's state over a pass of T windows, in the lane layout of
// LaneTape: the recurrent weights packed for U^T d, each row's gate
// pre-activation gradients, and the dh carried between rows.
struct LaneBackward {
  // H·H x L: entry (c, j) of expert i's U at ((c·H + j), i), so one
  // LaneAccumulate over d forms every expert's U^T d. GRU only.
  Matrix u_z, u_k, u_h;
  Matrix d_pre;       // T x H·L; a feed-forward core's too
  Matrix d_k, d_z;    // T x H·L
  // H x L: d loss / d state of the row being run back. The caller adds
  // the row's outside terms (heads, attention) before each step.
  Matrix dh;
  Matrix dh_prev, d_kh, omz, tmp, minus_ones;  // H x L scratch

  // Shapes every matrix for T windows of `cores`, zeroes the packs (so the
  // padded lanes stay 0) and dh.
  void Resize(size_t steps, const LaneCores& cores);
};

// Puts a GRU's Uz, Uk and Uh into lane i of `back`'s packs.
void PackGruBackwardLane(const GruCell& gru, size_t i, LaneBackward& back);

// Runs tape row r's step backward for every expert from dh = back.dh,
// writing row r of d_pre, d_k and d_z (d_pre alone for the feed-forward
// core). With `chain` (the step's previous state is not a constant; a GRU
// only), back.dh then becomes d loss / d previous state, whose terms
// arrive in the order d_kh.k, Uk^T d_k, dh.z, Uz^T d_z, each LaneAccumulate
// adding to the running buffer; without, it becomes zero.
void LaneCoreStepBackward(const LaneCores& cores, const LaneTape& tape, size_t r, bool chain,
                          LaneBackward& back);

// One GRU's pass in the expert layout: T x H matrices, one row per window
// in the backward's row order.
struct GruPass {
  const Matrix& h_prev;
  const Matrix& kh;
  const Matrix& d_z;
  const Matrix& d_k;
  const Matrix& d_pre;
};

// Adds the GRU's nine weight and bias gradients over every row of `pass`,
// in row order: one AccumulateATransposeB per weight (the graph's per-step
// rank-1 updates round each product the same way) and AccumulateRows per
// bias. `x` holds the steps' inputs, T x D in the pass's row order.
void AccumulateGruGradients(const GruPass& pass, const Matrix& x, const GruCell& gru);

// grad[c] += rows(r, c) for every row r in order: a bias gradient summed over
// a pass's rows.
void AccumulateRows(const Matrix& rows, Matrix& grad);

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

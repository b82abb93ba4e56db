// The chunk trainer's buffers (DeepRestEstimator::TrainChunk). Private to
// the estimator: included by its training translation unit
// (estimator_train.cc) and by the tests' oracle peer, which drives
// TrainChunk directly.
#ifndef SRC_CORE_ESTIMATOR_TRAIN_H_
#define SRC_CORE_ESTIMATOR_TRAIN_H_

#include <vector>

#include "src/core/estimator.h"
#include "src/nn/batched.h"
#include "src/nn/matrix.h"

namespace deeprest {

// Reused across chunks and epochs. RunTraining owns one, so distinct models
// still train in parallel.
struct DeepRestEstimator::TrainScratch {
  // One expert's forward over a BPTT chunk, saved for the hand-written
  // backward, and the gradients that backward derives. Every matrix holds
  // one row per window of the chunk, newest window first, so each sum over
  // t the backward forms runs newest first by walking rows in order.
  struct ExpertTape {
    Matrix xm;         // T x D masked input (API mask only)
    Matrix gates;      // T x G input-block products (x~ · w_in)
    // T x H, moved out of the lane tape for the weight sums: the GRU steps'
    // previous states and k . h, and the gate pre-activation gradients
    // (d_pre alone for the feed-forward core).
    Matrix h_prev, kh, d_z, d_k, d_pre;
    Matrix concat;     // T x 2H head input [attended ; h]
    Matrix head_grad;  // T x 3 loss gradient of the head output
    Matrix d_concat;   // T x 2H head input gradient
    Matrix d_cat;      // T x C: x~.grad's GEMM operand
    Matrix d_x;        // T x D: x~.grad
  };

  std::vector<ExpertTape> tapes;        // one per expert
  std::vector<Matrix> x_grad_weights;   // per expert C x D, e.g. [skip; Wk; Wh; Wz]
  std::vector<const Matrix*> gate_blocks;  // each expert's tape.gates
  Matrix lane_gates;                    // T x G·L: the gates in lane layout
  Matrix lane_state;                    // H x L: every expert's state
  LaneTape lane_tape;                   // every expert's steps
  LaneBackward lane_back;               // and their backward
  Matrix lane_d_head, lane_d_state;     // T x H·L: dh's outside terms
  std::vector<float*> expert_rows;      // LanesToExperts destinations
  PackedScratch head;                   // head temporaries
  Matrix x;                             // T x D scaled windows
  Matrix bypass;                        // T x 3
  Matrix state, attended;               // E x T·H: block r of row i is
  Matrix d_head, d_attended, d_state;   // expert i at chunk row r
  Matrix attended_block, state_block;   // E x H, one window's blocks
  Matrix d_alpha;                       // E x E, then d_alpha . diag
  Matrix one_minus_sig, mask_term;      // 1 x D mask-gradient factors
  std::vector<float> loss_terms;        // T x E pinball losses
};

}  // namespace deeprest

#endif  // SRC_CORE_ESTIMATOR_TRAIN_H_

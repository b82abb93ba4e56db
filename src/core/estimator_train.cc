// DeepRest training (paper section 4.3, Eq. 1-6) without an autograd tape.
//
// Each truncated-BPTT chunk of T windows runs forward on the packed
// batch-row-major layout inference uses (src/nn/batched.h): the windows are
// scaled once, every h-independent term of an expert is one T x D · D x G
// GEMM on its packed w_in, and only the recurrent core steps per window,
// every expert at once in the lane layout (LaneCoreStep), each window's
// internals going straight into its row of the lane tape. Attention and the
// heads do not feed the recurrence, so they run once per chunk too.
//
// The backward is written by hand and writes each parameter's gradient with
// the same kernels, and in the same per-buffer order, as the reverse sweep
// of the elementary-op graph (the tests' oracle,
// tests/testing/reference_graph.h), so the gradients are bit-identical. That
// sweep visits one window at a time, newest first: the (pinball, head) pairs
// of experts E-1..0, then attention, then the (core, mask) pairs of experts
// E-1..0. Every buffer is seeded at zero and only ever accumulates, so it
// can never hold -0 and the order of its contributions is all that matters:
//   * dh_t (per expert) takes GRU(t+1)'s terms in the order the step
//     computes them (dkh.k, Uk^T dk, g.z, Uz^T dz), then the head's lower
//     d_concat half, then attention's d_state row: the only sequential part.
//     It runs for every expert at once, newest window first, in the lane
//     layout (LaneCoreStepBackward): element-wise passes over H·L floats and
//     one LaneAccumulate per U^T d, each adding to the running buffer; the
//     head and attention terms move into the lane layout once per chunk;
//   * alpha.grad takes d_alpha . diag once per window, newest first, where
//     d_alpha is a double-accumulated k = H AccumulateABTranspose;
//   * every other gradient is a newest-first sum over t from the zeroed
//     grad: one AccumulateATransposeB over rows stored newest first (the
//     rank-1 updates of the graph rounded each product the same way), or a
//     row loop for the biases. These read each expert's T x H matrices,
//     which one transpose per matrix per chunk moves out of the lane tape
//     (LanesToExperts);
//   * x~.grad takes the head's skip term, then the GRU's Wk, Wh and Wz
//     terms, as one GEMM [head_grad | dk | d_pre | dz] · [skip; Wk; Wh; Wz]
//     whose ascending-k chain is that order; mask.grad then takes it newest
//     first.
// The loss sums t ascending, then experts ascending, in float, like the
// graph's AddN. The GRU step's backward and its weight sums are the helpers
// the resource-aware DL baseline shares (LaneCoreStepBackward and
// AccumulateGruGradients, src/nn/batched.h). DESIGN.md section 6 has the
// argument in full.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/core/estimator.h"
#include "src/core/estimator_train.h"
#include "src/nn/optimizer.h"
#include "src/nn/simd/dispatch.h"

namespace deeprest {

namespace {

// Appends `block`'s row r to dst (dst += block.cols()).
float* AppendRow(const Matrix& block, size_t r, float* dst) {
  const float* row = block.data() + r * block.cols();
  return std::copy(row, row + block.cols(), dst);
}

}  // namespace

void DeepRestEstimator::RunTraining(const std::vector<std::vector<float>>& features,
                                    const std::vector<std::vector<float>>& targets,
                                    size_t epochs, float learning_rate, bool decay_masks) {
  // Truncated BPTT: hidden state values carry across chunk boundaries but
  // gradients do not flow past them.
  const size_t window_count = features.size();
  AdamOptimizer optimizer(store_, learning_rate);
  TrainScratch scratch;
  std::vector<float> hidden;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    hidden.assign(experts_.size() * config_.hidden_dim, 0.0f);
    double epoch_loss = 0.0;
    size_t loss_terms = 0;
    for (size_t chunk_start = 0; chunk_start < window_count;
         chunk_start += config_.bptt_chunk) {
      const size_t chunk_end = std::min(window_count, chunk_start + config_.bptt_chunk);
      optimizer.ZeroGrad();
      const float loss = TrainChunk(features, targets, chunk_start, chunk_end, hidden, scratch);
      ClipGradNorm(store_, config_.grad_clip);
      optimizer.Step();
      if (decay_masks && config_.use_api_mask && config_.mask_decay > 0.0f) {
        for (auto& expert : experts_) {
          Matrix& logits = expert.mask->value;
          for (size_t d = 0; d < logits.size(); ++d) {
            logits[d] -= config_.mask_decay;
          }
        }
      }
      const size_t terms = (chunk_end - chunk_start) * experts_.size();
      epoch_loss += static_cast<double>(loss) * static_cast<double>(terms);
      loss_terms += terms;
    }
    epoch_losses_.push_back(static_cast<float>(epoch_loss / std::max<size_t>(1, loss_terms)));
    if (config_.verbose) {
      std::fprintf(stderr, "[deeprest] epoch %zu/%zu loss %.5f\n", epoch + 1, epochs,
                   epoch_losses_.back());
    }
  }
}

float DeepRestEstimator::TrainChunk(const std::vector<std::vector<float>>& features,
                                    const std::vector<std::vector<float>>& targets,
                                    size_t begin, size_t end, std::vector<float>& hidden,
                                    TrainScratch& s) {
  const size_t e = experts_.size();
  const size_t hd = config_.hidden_dim;
  const size_t dim = feature_scale_.size();
  const size_t steps = end - begin;
  const size_t block = steps * hd;  // one expert's row of the stacked state
  const bool masked = config_.use_api_mask;
  const bool attention = config_.use_attention;
  const bool bypass = config_.use_linear_bypass;
  const bool recurrent = config_.use_recurrence;
  assert(steps > 0 && e > 0 && hidden.size() == e * hd);

  // Weights as of the last optimizer step, plus the x~-gradient stacks: the
  // rows of the weights that consume x~, in the order the graph accumulates
  // their terms into x~.grad.
  RefreshInferencePack();
  s.tapes.resize(e);
  s.x_grad_weights.resize(e);
  for (size_t i = 0; masked && i < e; ++i) {
    const Expert& expert = experts_[i];
    std::vector<const Matrix*> rows;
    if (bypass) {
      rows.push_back(&expert.skip.weight().value);
    }
    if (recurrent) {
      rows.insert(rows.end(), {&expert.gru.wk().value, &expert.gru.wh().value,
                               &expert.gru.wz().value});
    } else {
      rows.push_back(&expert.ff.weight().value);
    }
    StackRowsInto(rows, s.x_grad_weights[i]);
  }

  // ---- Forward ----
  // Row r of every per-window matrix is window end - 1 - r.
  s.x.SetShape(steps, dim);
  for (size_t r = 0; r < steps; ++r) {
    ScaleWindow(features[end - 1 - r], s.x.data() + r * dim);
  }
  const size_t lanes = cores_.lanes;
  const size_t n = hd * lanes;  // one window's H x L block
  const size_t gate_rows = cores_.gates();
  s.gate_blocks.resize(e);
  s.expert_rows.resize(e);
  for (size_t i = 0; i < e; ++i) {
    TrainScratch::ExpertTape& tape = s.tapes[i];
    PackedInputBlock(packed_[i], s.x, tape.xm, tape.gates);
    s.gate_blocks[i] = &tape.gates;
    for (Matrix* m : {&tape.h_prev, &tape.kh, &tape.d_z, &tape.d_k, &tape.d_pre}) {
      m->SetShape(steps, hd);
    }
  }
  // Every expert's T x H tape matrix `m`, as LanesToExperts' destinations.
  const auto per_expert = [&](Matrix TrainScratch::ExpertTape::*m) -> const std::vector<float*>& {
    for (size_t i = 0; i < e; ++i) {
      s.expert_rows[i] = (s.tapes[i].*m).data();
    }
    return s.expert_rows;
  };
  GatesToLanes(s.gate_blocks, gate_rows, lanes, s.lane_gates);
  // Every expert's core steps together, in the lane layout (state(r·L + i)
  // is row r of expert i's state), each window's internals going straight
  // into its row of the lane tape.
  s.lane_state.SetShape(hd, lanes);
  s.lane_state.Zero();
  ExpertsToLanes(hidden.data(), hd, hd, cores_, s.lane_state.data());
  s.lane_tape.Resize(steps, cores_);
  for (size_t r = steps; r-- > 0;) {  // oldest window first
    LaneCoreStep(cores_, s.lane_gates.data() + r * gate_rows * lanes, s.lane_state.data(),
                 s.lane_tape, r);
  }
  // The state trajectory, expert-major. Window r's state is the feed-forward
  // core's output row r, or the GRU's previous state of row r - 1 (the last
  // state for the newest window): one transpose moves every previous state
  // to the experts' h_prev, whose rows 0..T-2 are the trajectory's 1..T-1.
  s.state.SetShape(e, block);
  if (recurrent) {
    LanesToExperts(s.lane_tape.h.data(), block, cores_,
                   per_expert(&TrainScratch::ExpertTape::h_prev));
    for (size_t i = 0; i < e; ++i) {
      std::memcpy(s.state.data() + i * block + hd, s.tapes[i].h_prev.data(),
                  (block - hd) * sizeof(float));
    }
    LanesToExperts(s.lane_state.data(), hd, cores_, s.state.data(), block);
  } else {
    LanesToExperts(s.lane_tape.hc.data(), block, cores_, s.state.data(), block);
  }
  LanesToExperts(s.lane_state.data(), hd, cores_, hidden.data(), hd);
  if (attention) {
    MatMulInto(packed_attention_, s.state, s.attended);
  }

  // Heads and the pinball loss (Eq. 5-6), whose gradient seeds the backward:
  // d loss / d y = (1 / (T E)) * (u >= 0 ? -q : 1 - q), u = target - y.
  const float lo_q = (1.0f - config_.delta) / 2.0f;
  const float up_q = config_.delta + (1.0f - config_.delta) / 2.0f;
  const float deltas[3] = {0.5f, lo_q, up_q};
  const float inv = 1.0f / static_cast<float>(steps * e);
  s.loss_terms.resize(steps * e);
  for (size_t i = 0; i < e; ++i) {
    const PackedExpert& p = packed_[i];
    TrainScratch::ExpertTape& tape = s.tapes[i];
    if (bypass) {
      s.bypass.SetShape(steps, 3);
      PackedBypass(p, tape.gates.data(), steps, s.bypass.data());
    }
    PackedExpertHead(p, attention ? s.attended.data() + i * block : nullptr,
                     s.state.data() + i * block, bypass ? s.bypass.data() : nullptr, steps,
                     s.head);
    std::swap(tape.concat, s.head.concat);
    const Matrix& y = s.head.y;
    tape.head_grad.SetShape(steps, 3);
    for (size_t r = 0; r < steps; ++r) {
      const float target = targets[i][end - 1 - r];
      float loss = 0.0f;
      for (size_t j = 0; j < 3; ++j) {
        const float u = target - y.At(r, j);
        const float q = deltas[j];
        loss += u >= 0.0f ? q * u : (q - 1.0f) * u;
        tape.head_grad.At(r, j) = inv * (u >= 0.0f ? -q : 1.0f - q);
      }
      s.loss_terms[r * e + i] = loss;
    }
  }
  float loss_sum = 0.0f;
  for (size_t r = steps; r-- > 0;) {
    for (size_t i = 0; i < e; ++i) {
      loss_sum += s.loss_terms[r * e + i];
    }
  }

  // ---- Backward ----
  // The heads' input gradients: the lower d_concat halves are dh's head
  // terms, the upper ones attention's input gradient. Then attention: its
  // d_state rows feed dh, and alpha.grad takes one d_alpha . diag per
  // window.
  s.d_head.SetShape(e, block);
  if (attention) {
    s.d_attended.SetShape(e, block);
  }
  for (size_t i = 0; i < e; ++i) {
    TrainScratch::ExpertTape& tape = s.tapes[i];
    MatMulInto(tape.head_grad, experts_[i].head.weight().value, tape.d_concat);
    for (size_t r = 0; r < steps; ++r) {
      const float* d_concat = tape.d_concat.data() + r * 2 * hd;
      const size_t at = i * block + r * hd;
      if (attention) {
        std::memcpy(s.d_attended.data() + at, d_concat, hd * sizeof(float));
      }
      std::memcpy(s.d_head.data() + at, d_concat + hd, hd * sizeof(float));
    }
  }
  s.lane_d_head.SetShape(steps, n);
  ExpertsToLanes(s.d_head.data(), block, block, cores_, s.lane_d_head.data());
  if (attention) {
    s.d_state.SetShape(e, block);
    s.d_state.Zero();
    AccumulateATransposeB(packed_attention_, s.d_attended, s.d_state);
    s.lane_d_state.SetShape(steps, n);
    ExpertsToLanes(s.d_state.data(), block, block, cores_, s.lane_d_state.data());
    Matrix& alpha_grad = alpha_->grad;
    const Matrix& diag = diag_mask_;
    s.attended_block.SetShape(e, hd);
    s.state_block.SetShape(e, hd);
    for (size_t r = 0; r < steps; ++r) {
      for (size_t i = 0; i < e; ++i) {
        const size_t from = i * block + r * hd;
        std::memcpy(s.attended_block.data() + i * hd, s.d_attended.data() + from,
                    hd * sizeof(float));
        std::memcpy(s.state_block.data() + i * hd, s.state.data() + from, hd * sizeof(float));
      }
      s.d_alpha.SetShape(e, e);
      s.d_alpha.Zero();
      AccumulateABTranspose(s.attended_block, s.state_block, s.d_alpha);
      HadamardInto(s.d_alpha, diag, s.d_alpha);
      AddInto(alpha_grad, s.d_alpha, alpha_grad);
    }
  }

  // The dh chain, every expert at once, newest window first. dh enters row
  // r holding the core terms of window end - r (zero for the newest
  // window), then takes the head's and attention's. The oldest window's
  // previous state is a constant: no dh_prev.
  LaneBackward& back = s.lane_back;
  back.Resize(steps, cores_);
  for (size_t i = 0; recurrent && i < e; ++i) {
    PackGruBackwardLane(experts_[i].gru, i, back);
  }
  for (size_t r = 0; r < steps; ++r) {
    simd::Add(back.dh.data(), s.lane_d_head.data() + r * n, back.dh.data(), n);
    if (attention) {
      simd::Add(back.dh.data(), s.lane_d_state.data() + r * n, back.dh.data(), n);
    }
    LaneCoreStepBackward(cores_, s.lane_tape, r, recurrent && r + 1 < steps, back);
  }
  LanesToExperts(back.d_pre.data(), block, cores_, per_expert(&TrainScratch::ExpertTape::d_pre));
  if (recurrent) {
    LanesToExperts(back.d_k.data(), block, cores_, per_expert(&TrainScratch::ExpertTape::d_k));
    LanesToExperts(back.d_z.data(), block, cores_, per_expert(&TrainScratch::ExpertTape::d_z));
    LanesToExperts(s.lane_tape.kh.data(), block, cores_,
                   per_expert(&TrainScratch::ExpertTape::kh));
  }

  for (size_t i = 0; i < e; ++i) {
    Expert& expert = experts_[i];
    TrainScratch::ExpertTape& tape = s.tapes[i];
    // Everything else is a newest-first sum over the chunk's rows.
    const Matrix& xm = masked ? tape.xm : s.x;
    AccumulateATransposeB(tape.head_grad, tape.concat, expert.head.weight().grad);
    AccumulateRows(tape.head_grad, expert.head.bias().grad);
    if (bypass) {
      AccumulateATransposeB(tape.head_grad, xm, expert.skip.weight().grad);
      AccumulateRows(tape.head_grad, expert.skip.bias().grad);
    }
    if (recurrent) {
      AccumulateGruGradients({tape.h_prev, tape.kh, tape.d_z, tape.d_k, tape.d_pre}, xm,
                             expert.gru);
    } else {
      AccumulateATransposeB(tape.d_pre, xm, expert.ff.weight().grad);
      AccumulateRows(tape.d_pre, expert.ff.bias().grad);
    }
    if (!masked) {
      continue;  // x~ is the constant input: no x~.grad, no mask
    }
    // x~.grad = [head_grad | dk | d_pre | dz] · [skip; Wk; Wh; Wz], then
    // mask.grad += (x~.grad . x) . s . (1 - s) with s = sigmoid(mask).
    const Matrix& weights = s.x_grad_weights[i];
    tape.d_cat.SetShape(steps, weights.rows());
    for (size_t r = 0; r < steps; ++r) {
      float* dst = tape.d_cat.data() + r * weights.rows();
      if (bypass) {
        dst = AppendRow(tape.head_grad, r, dst);
      }
      if (recurrent) {
        dst = AppendRow(tape.d_k, r, dst);
        dst = AppendRow(tape.d_pre, r, dst);
        AppendRow(tape.d_z, r, dst);
      } else {
        AppendRow(tape.d_pre, r, dst);
      }
    }
    MatMulInto(tape.d_cat, weights, tape.d_x);
    const Matrix& sig = packed_[i].mask;
    s.one_minus_sig.SetShape(1, dim);
    for (size_t d = 0; d < dim; ++d) {
      s.one_minus_sig[d] = 1.0f - sig[d];
    }
    s.mask_term.SetShape(1, dim);
    float* term = s.mask_term.data();
    float* mask_grad = expert.mask->grad.data();
    for (size_t r = 0; r < steps; ++r) {
      simd::Hadamard(tape.d_x.data() + r * dim, s.x.data() + r * dim, term, dim);
      simd::Hadamard(term, sig.data(), term, dim);
      simd::Hadamard(term, s.one_minus_sig.data(), term, dim);
      simd::Add(mask_grad, term, mask_grad, dim);
    }
  }
  return inv * loss_sum + 0.0f;
}

}  // namespace deeprest

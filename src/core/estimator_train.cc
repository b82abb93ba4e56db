// DeepRest training (paper section 4.3, Eq. 1-6) without an autograd tape.
//
// Each truncated-BPTT chunk of T windows runs forward on the packed
// batch-row-major layout inference uses (src/nn/batched.h): the windows are
// scaled once, every h-independent term of an expert is one T x D · D x G
// GEMM on its packed w_in, and only the recurrent core steps per window,
// every expert at once in the lane layout (LaneCoreStep), filling each
// expert's tape rows from the lane buffers. Attention and the heads do not
// feed the recurrence, so they run once per chunk too.
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
//     d_concat half, then attention's d_state row: the only sequential part;
//   * alpha.grad takes d_alpha . diag once per window, newest first, where
//     d_alpha is a double-accumulated k = H AccumulateABTranspose;
//   * every other gradient is a newest-first sum over t from the zeroed
//     grad: one AccumulateATransposeB over rows stored newest first (the
//     rank-1 updates of the graph rounded each product the same way), or a
//     row loop for the biases;
//   * x~.grad takes the head's skip term, then the GRU's Wk, Wh and Wz
//     terms, as one GEMM [head_grad | dk | d_pre | dz] · [skip; Wk; Wh; Wz]
//     whose ascending-k chain is that order; mask.grad then takes it newest
//     first.
// The loss sums t ascending, then experts ascending, in float, like the
// graph's AddN. The GRU step's backward and its weight sums are the helpers
// the resource-aware DL baseline shares (GruStepBackward and
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
  const size_t gate_rows = cores_.gates();
  s.gate_blocks.resize(e);
  for (size_t i = 0; i < e; ++i) {
    TrainScratch::ExpertTape& tape = s.tapes[i];
    PackedInputBlock(packed_[i], s.x, tape.xm, tape.gates);
    s.gate_blocks[i] = &tape.gates;
    tape.gru.Resize(steps, hd);
  }
  GatesToLanes(s.gate_blocks, gate_rows, lanes, s.lane_gates);
  // Every expert's core steps together, in the lane layout (state(r·L + i)
  // is row r of expert i's state); each window's internals then go to the
  // experts' tapes and its state to the trajectory.
  s.lane_state.SetShape(hd, lanes);
  s.lane_state.Zero();
  StateToLanes(hidden.data(), hd, cores_, s.lane_state.data());
  s.state.SetShape(e, block);
  for (size_t r = steps; r-- > 0;) {  // oldest window first
    LaneCoreStep(cores_, s.lane_gates.data() + r * gate_rows * lanes, s.lane_state.data(),
                 s.step);
    StateFromLanes(s.lane_state.data(), cores_, s.state.data() + r * hd, block);
    for (size_t i = 0; recurrent && i < e; ++i) {
      SaveLaneStep(s.step, lanes, i, r, s.tapes[i].gru);
    }
  }
  StateFromLanes(s.lane_state.data(), cores_, hidden.data(), hd);
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
  // The heads' input gradients, then attention: its d_state rows feed dh,
  // and alpha.grad takes one d_alpha . diag per window.
  for (size_t i = 0; i < e; ++i) {
    TrainScratch::ExpertTape& tape = s.tapes[i];
    MatMulInto(tape.head_grad, experts_[i].head.weight().value, tape.d_concat);
  }
  if (attention) {
    s.d_attended.SetShape(e, block);
    for (size_t i = 0; i < e; ++i) {
      const Matrix& d_concat = s.tapes[i].d_concat;
      float* row = s.d_attended.data() + i * block;
      for (size_t r = 0; r < steps; ++r) {
        std::memcpy(row + r * hd, d_concat.data() + r * 2 * hd, hd * sizeof(float));
      }
    }
    s.d_state.SetShape(e, block);
    s.d_state.Zero();
    AccumulateATransposeB(packed_attention_, s.d_attended, s.d_state);
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

  for (size_t i = 0; i < e; ++i) {
    Expert& expert = experts_[i];
    TrainScratch::ExpertTape& tape = s.tapes[i];
    GruTape& core = tape.gru;
    const float* trajectory = s.state.data() + i * block;
    const float* d_state = attention ? s.d_state.data() + i * block : nullptr;
    // The dh chain, newest window first. core.dh enters row r holding the
    // core terms of window end - r (zero for the newest window).
    for (size_t r = 0; r < steps; ++r) {
      float* dh = core.dh.data();
      const float* head_half = tape.d_concat.data() + r * 2 * hd + hd;
      for (size_t c = 0; c < hd; ++c) {
        dh[c] += head_half[c];
      }
      if (d_state != nullptr) {
        for (size_t c = 0; c < hd; ++c) {
          dh[c] += d_state[r * hd + c];
        }
      }
      if (!recurrent) {
        // h = tanh(Wff x~ + bff): d_pre = dh . (1 - h^2).
        const float* h = trajectory + r * hd;
        for (size_t c = 0; c < hd; ++c) {
          core.d_pre[r * hd + c] = dh[c] * (1.0f - h[c] * h[c]);
        }
        core.dh.Zero();
        continue;
      }
      // The oldest window's previous state is a constant: no dh_prev.
      GruStepBackward(expert.gru, r, r + 1 < steps, core);
    }

    // Everything else is a newest-first sum over the chunk's rows.
    const Matrix& xm = masked ? tape.xm : s.x;
    AccumulateATransposeB(tape.head_grad, tape.concat, expert.head.weight().grad);
    AccumulateRows(tape.head_grad, expert.head.bias().grad);
    if (bypass) {
      AccumulateATransposeB(tape.head_grad, xm, expert.skip.weight().grad);
      AccumulateRows(tape.head_grad, expert.skip.bias().grad);
    }
    if (recurrent) {
      AccumulateGruGradients(core, xm, expert.gru);
    } else {
      AccumulateATransposeB(core.d_pre, xm, expert.ff.weight().grad);
      AccumulateRows(core.d_pre, expert.ff.bias().grad);
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
        dst = AppendRow(core.d_k, r, dst);
        dst = AppendRow(core.d_pre, r, dst);
        AppendRow(core.d_z, r, dst);
      } else {
        AppendRow(core.d_pre, r, dst);
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

// The core's backward in the lane layout (LaneCoreStepBackward), per ISA
// rung, against a per-lane loop written here: the GRU step's reverse sweep
// for one expert at a time, in the scalar order the trainers' contract fixes
// (d_pre = (dh . (-1·z + 1)) . (1 - h~^2); d_kh = Uh^T d_pre from +0;
// d_k = ((d_kh . h) . k) . (1 - k); d_z = ((-1·(dh . h~) + dh . h) . z) .
// (1 - z); dh_prev = +0 + d_kh . k, then Uk^T d_k, dh . z and Uz^T d_z, each
// U^T d an ascending chain on the running value). d_pre, d_k, d_z and the
// carried dh are compared with memcmp, lane by lane, over chained and
// unchained windows, for H in {1, 8, 12}, for expert counts whose lanes end
// in a partial vector register, and for the feed-forward core.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/batched.h"
#include "src/nn/layers.h"
#include "src/nn/matrix.h"
#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"

namespace deeprest {
namespace {

constexpr size_t kSteps = 5;

// Row r of the pass chains into its previous state unless r % 3 == 1; the
// oldest row never does, as in the trainers.
bool Chains(size_t r) { return r + 1 < kSteps && r % 3 != 1; }

// One expert's lane of a lane-layout H x L block.
std::vector<float> Lane(const float* block, size_t hidden, size_t lanes, size_t i) {
  std::vector<float> out(hidden);
  for (size_t c = 0; c < hidden; ++c) {
    out[c] = block[c * lanes + i];
  }
  return out;
}

// Per row: the gate gradients, and dh after the row's step.
struct Reference {
  std::vector<std::vector<float>> d_pre, d_k, d_z, dh;
};

// The per-lane loop: expert i's rows, newest first, from the tape's lane i.
// `outside[r]` is the lane-layout term added to dh before row r's step.
Reference RunLane(const LaneTape& tape, const GruCell* gru, const std::vector<Matrix>& outside,
                  size_t hidden, size_t lanes, size_t i) {
  const size_t n = hidden * lanes;
  Reference ref;
  std::vector<float> dh(hidden, 0.0f);
  for (size_t r = 0; r < kSteps; ++r) {
    const std::vector<float> add = Lane(outside[r].data(), hidden, lanes, i);
    for (size_t c = 0; c < hidden; ++c) {
      dh[c] += add[c];
    }
    const std::vector<float> hc = Lane(tape.hc.data() + r * n, hidden, lanes, i);
    std::vector<float> d_pre(hidden), d_k(hidden), d_z(hidden), dh_prev(hidden, 0.0f);
    if (gru == nullptr) {
      for (size_t c = 0; c < hidden; ++c) {
        d_pre[c] = dh[c] * (1.0f - hc[c] * hc[c]);
      }
      dh.assign(hidden, 0.0f);
      ref.d_pre.push_back(d_pre);
      ref.d_k.push_back(d_k);
      ref.d_z.push_back(d_z);
      ref.dh.push_back(dh);
      continue;
    }
    const std::vector<float> h = Lane(tape.h.data() + r * n, hidden, lanes, i);
    const std::vector<float> z = Lane(tape.zk.data() + r * 2 * n, hidden, lanes, i);
    const std::vector<float> k = Lane(tape.zk.data() + r * 2 * n + n, hidden, lanes, i);
    const Matrix& uz = gru->uz().value;
    const Matrix& uk = gru->uk().value;
    const Matrix& uh = gru->uh().value;
    const bool chain = Chains(r);
    std::vector<float> d_kh(hidden, 0.0f);
    for (size_t c = 0; c < hidden; ++c) {
      const float omz = -1.0f * z[c] + 1.0f;
      d_pre[c] = (dh[c] * omz) * (1.0f - hc[c] * hc[c]);
    }
    for (size_t c = 0; c < hidden; ++c) {
      for (size_t j = 0; j < hidden; ++j) {
        d_kh[c] += uh.At(j, c) * d_pre[j];
      }
    }
    for (size_t c = 0; c < hidden; ++c) {
      d_k[c] = d_kh[c] * h[c];
      if (chain) {
        dh_prev[c] += d_kh[c] * k[c];
      }
      d_k[c] = d_k[c] * k[c] * (1.0f - k[c]);
    }
    for (size_t c = 0; chain && c < hidden; ++c) {
      for (size_t j = 0; j < hidden; ++j) {
        dh_prev[c] += uk.At(j, c) * d_k[j];
      }
    }
    for (size_t c = 0; c < hidden; ++c) {
      d_z[c] = -1.0f * (dh[c] * hc[c]);
      d_z[c] += dh[c] * h[c];
      if (chain) {
        dh_prev[c] += dh[c] * z[c];
      }
      d_z[c] = d_z[c] * z[c] * (1.0f - z[c]);
    }
    for (size_t c = 0; chain && c < hidden; ++c) {
      for (size_t j = 0; j < hidden; ++j) {
        dh_prev[c] += uz.At(j, c) * d_z[j];
      }
    }
    dh = dh_prev;
    ref.d_pre.push_back(d_pre);
    ref.d_k.push_back(d_k);
    ref.d_z.push_back(d_z);
    ref.dh.push_back(dh);
  }
  return ref;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Case {
  size_t experts, lanes, hidden;
  bool recurrent;
};

// Restores the dispatch rung however a test exits.
class LaneBackwardTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetIsa(); }
};

TEST_F(LaneBackwardTest, StepBackwardBitIdenticalToPerLaneLoopOnEveryIsa) {
  std::vector<Case> cases;
  for (size_t hidden : {1u, 8u, 12u}) {
    for (bool recurrent : {true, false}) {
      // 21 experts on 21 lanes end in a masked partial register on every
      // vector rung; on 32 lanes the padded lanes are whole. 76 on 80 is the
      // paper's model.
      cases.push_back({21, 21, hidden, recurrent});
      cases.push_back({21, LaneCount(21), hidden, recurrent});
      cases.push_back({76, LaneCount(76), hidden, recurrent});
    }
  }
  Rng rng(2026);
  for (const Case& t : cases) {
    const size_t hd = t.hidden;
    const size_t n = hd * t.lanes;
    LaneCores cores;
    ResetLaneCores(t.experts, t.lanes, hd, t.recurrent, cores);
    ParameterStore store;
    std::vector<GruCell> grus;
    Matrix stacked, ff_bias(hd, 1);
    for (size_t i = 0; i < t.experts; ++i) {
      if (t.recurrent) {
        grus.emplace_back(store, "gru" + std::to_string(i), 2, hd, rng);
        for (Parameter* p : {&grus[i].uz(), &grus[i].uk(), &grus[i].uh(), &grus[i].bz(),
                             &grus[i].bk(), &grus[i].bh()}) {
          p->value.FillUniform(rng, 1.5f);
        }
        PackGruLane(grus[i], i, cores, stacked);
      } else {
        ff_bias.FillUniform(rng, 0.5f);
        PackLane(ff_bias, i, cores.bias);
      }
    }
    // The forward fills the tape. Lane 3's k gates saturate to +0, the
    // sigmoid's underflow edge, where d_k and d_kh . k are signed zeros.
    LaneTape tape;
    tape.Resize(kSteps, cores);
    Matrix gates(kSteps, cores.gates() * t.lanes);
    gates.FillUniform(rng, 2.0f);
    for (size_t r = 0; t.recurrent && r < kSteps; ++r) {
      for (size_t c = 0; c < hd; ++c) {
        gates.At(r, (hd + c) * t.lanes + 3) = -200.0f;
      }
    }
    Matrix state(hd, t.lanes);
    state.FillUniform(rng, 0.9f);
    for (size_t r = kSteps; r-- > 0;) {
      LaneCoreStep(cores, gates.data() + r * cores.gates() * t.lanes, state.data(), tape, r);
    }
    // Each row's outside dh terms (heads and attention in the trainer).
    std::vector<Matrix> outside(kSteps, Matrix(hd, t.lanes));
    for (Matrix& m : outside) {
      m.FillUniform(rng, 1.0f);
    }

    std::vector<Reference> refs;
    for (size_t i = 0; i < t.experts; ++i) {
      refs.push_back(RunLane(tape, t.recurrent ? &grus[i] : nullptr, outside, hd, t.lanes, i));
    }
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512,
                          simd::Isa::kNeon}) {
      if (!simd::IsaSupported(isa)) {
        continue;
      }
      ASSERT_EQ(simd::ForceIsa(isa), isa);
      LaneBackward back;
      back.Resize(kSteps, cores);
      for (size_t i = 0; t.recurrent && i < t.experts; ++i) {
        PackGruBackwardLane(grus[i], i, back);
      }
      const std::string where = std::string(simd::IsaName(isa)) + " E=" +
                                std::to_string(t.experts) + " L=" + std::to_string(t.lanes) +
                                " H=" + std::to_string(hd) +
                                (t.recurrent ? " gru" : " feed-forward");
      for (size_t r = 0; r < kSteps; ++r) {
        simd::Add(back.dh.data(), outside[r].data(), back.dh.data(), n);
        LaneCoreStepBackward(cores, tape, r, t.recurrent && Chains(r), back);
        for (size_t i = 0; i < t.experts; ++i) {
          const Reference& ref = refs[i];
          EXPECT_TRUE(SameBits(Lane(back.d_pre.data() + r * n, hd, t.lanes, i), ref.d_pre[r]))
              << where << " d_pre lane " << i << " row " << r;
          if (t.recurrent) {
            EXPECT_TRUE(SameBits(Lane(back.d_k.data() + r * n, hd, t.lanes, i), ref.d_k[r]))
                << where << " d_k lane " << i << " row " << r;
            EXPECT_TRUE(SameBits(Lane(back.d_z.data() + r * n, hd, t.lanes, i), ref.d_z[r]))
                << where << " d_z lane " << i << " row " << r;
          }
          EXPECT_TRUE(SameBits(Lane(back.dh.data(), hd, t.lanes, i), ref.dh[r]))
              << where << " dh lane " << i << " row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace deeprest

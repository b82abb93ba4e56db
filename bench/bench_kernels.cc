// Hot-path benchmark: tiled GEMM kernels vs the preserved reference kernels,
// one Adam step on the active and the scalar rung, the owned sigmoid and tanh
// against glibc, one all-expert GRU window in the lane layout against
// per-expert GEMMs, end-to-end training/inference wall-clock, and the
// parallel training harness. Writes every measurement to a JSON file
// (default BENCH_kernels.json) so tools/bench_diff can compare runs.
//
// Usage: bench_kernels [--smoke] [--out <path>]
//   --smoke  tiny configuration for the perf-smoke ctest label (seconds, not
//            minutes; the numbers are NOT representative, only the plumbing)
//   --out    output JSON path (default: BENCH_kernels.json in the cwd)
//
// The "reference" training and inference legs differ from the optimized legs
// only in SetKernelMode(kReference): the same tape-free chunk trainer and
// packed forward on the same binary, with the Matrix-level GEMMs (the input
// block, attention, heads and gradients) on the preserved reference kernels.
// Both legs share the lane step: every expert's recurrence runs on
// simd::LaneAccumulate, simd::Sigmoid and simd::Tanh in either mode. Their
// epoch losses must match bit for bit (losses_bit_identical gates the exit
// code).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/estimator.h"
#include "src/eval/parallel.h"
#include "src/nn/batched.h"
#include "src/nn/matrix.h"
#include "src/nn/rng.h"
#include "src/nn/simd/dispatch.h"
#include "src/telemetry/metrics.h"
#include "src/trace/collector.h"

namespace deeprest {
namespace {

struct BenchOptions {
  bool smoke = false;
  std::string out = "BENCH_kernels.json";
};

// Synthetic workload: `fan` sibling operations spread over `components`
// services under one root, Poisson-sized windows. Mirrors the shape of the
// paper's fan-out APIs while staying fully deterministic (seed 7).
struct KernelFixture {
  TraceCollector traces;
  MetricsStore metrics;
  size_t windows = 96;
  std::vector<MetricKey> resources;

  KernelFixture(size_t components, size_t fan, uint64_t seed = 7) {
    Rng rng(seed);
    for (size_t c = 0; c < components; ++c) {
      resources.push_back({"Svc" + std::to_string(c), ResourceKind::kCpu});
    }
    for (size_t w = 0; w < windows; ++w) {
      const int count = rng.NextPoisson(18.0);
      for (int i = 0; i < count; ++i) {
        Trace t(w * 1000 + static_cast<uint64_t>(i), "/fan");
        const SpanIndex root = t.AddSpan("Frontend", "fan", kNoParent);
        for (size_t d = 0; d < fan; ++d) {
          t.AddSpan("Svc" + std::to_string(d % components), "op" + std::to_string(d), root);
        }
        traces.Collect(w, t);
      }
      for (size_t c = 0; c < components; ++c) {
        metrics.Record(resources[c], w, 5.0 + 0.1 * rng.Uniform(0, 10) + 0.2 * c);
      }
    }
  }
};

// ---- GEMM micro-benchmarks ----

struct GemmResult {
  std::string name;
  double tiled_ns = 0;
  double reference_ns = 0;
  double speedup() const { return reference_ns > 0 ? reference_ns / tiled_ns : 0; }
};

template <typename Fn>
double TimeNs(int iters, Fn&& fn) {
  // One untimed warm-up call settles allocations inside `out`.
  fn();
  const WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  return timer.Nanos() / iters;
}

GemmResult BenchMatMul(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  Matrix a(m, k), b(k, n), out;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  GemmResult result;
  result.name = "MatMulInto " + std::to_string(m) + "x" + std::to_string(k) + "*" +
                std::to_string(k) + "x" + std::to_string(n);
  result.tiled_ns = TimeNs(iters, [&] { MatMulInto(a, b, out); });
  result.reference_ns = TimeNs(iters, [&] { reference::MatMulInto(a, b, out); });
  return result;
}

GemmResult BenchAccATB(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  // out(k,n) += a(m,k)^T * b(m,n) — the weight-gradient shape.
  Matrix a(m, k), b(m, n), out(k, n);
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  GemmResult result;
  result.name = "AccumulateATransposeB " + std::to_string(m) + "x" + std::to_string(k) +
                "^T*" + std::to_string(m) + "x" + std::to_string(n);
  result.tiled_ns = TimeNs(iters, [&] { AccumulateATransposeB(a, b, out); });
  out.Zero();
  result.reference_ns = TimeNs(iters, [&] { reference::AccumulateATransposeB(a, b, out); });
  return result;
}

GemmResult BenchAccABT(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  // out(m,k) += a(m,n) * b(k,n)^T — the input-gradient shape.
  Matrix a(m, n), b(k, n), out(m, k);
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  GemmResult result;
  result.name = "AccumulateABTranspose " + std::to_string(m) + "x" + std::to_string(n) + "*" +
                std::to_string(k) + "x" + std::to_string(n) + "^T";
  result.tiled_ns = TimeNs(iters, [&] { AccumulateABTranspose(a, b, out); });
  out.Zero();
  result.reference_ns = TimeNs(iters, [&] { reference::AccumulateABTranspose(a, b, out); });
  return result;
}

// Batching payoff: B columns stacked into one GEMM vs B separate GEMVs of
// the same recurrent shape. Identical flops and identical per-column
// reduction order (each output element accumulates its k-products in
// ascending order either way), so the results are bit-identical and the
// difference is pure memory behavior: the GEMM streams the weight matrix
// once instead of B times.
struct BatchedGemmResult {
  size_t batch = 0;
  double gemv_ns = 0;  // B sequential mat-vec products
  double gemm_ns = 0;  // one mat-mat product with B columns
  double speedup() const { return gemm_ns > 0 ? gemv_ns / gemm_ns : 0; }
};

BatchedGemmResult BenchBatchedGemm(size_t h, size_t b, int iters, Rng& rng) {
  Matrix w(h, h), xb(h, b), out;
  std::vector<Matrix> xs(b, Matrix(h, 1));
  std::vector<Matrix> outs(b);
  w.FillUniform(rng, 1.0f);
  xb.FillUniform(rng, 1.0f);
  for (size_t c = 0; c < b; ++c) {
    for (size_t r = 0; r < h; ++r) {
      xs[c].At(r, 0) = xb.At(r, c);
    }
  }
  BatchedGemmResult result;
  result.batch = b;
  result.gemv_ns = TimeNs(iters, [&] {
    for (size_t c = 0; c < b; ++c) {
      MatMulInto(w, xs[c], outs[c]);
    }
  });
  result.gemm_ns = TimeNs(iters, [&] { MatMulInto(w, xb, out); });
  return result;
}

// ---- SIMD dispatch micro-benchmarks ----

// One shape, four kernel paths: dispatch-selected SIMD, forced-scalar SIMD
// (the portable fallback the ci.sh simd-off leg pins), the default (kTiled)
// mode, and the preserved reference. All timed through the SAME Matrix-level
// entry points so the numbers include dispatch overhead. The default mode
// runs every kernel but the GEMV on the dispatch-selected kernel, so on
// those rows `speedup` (vs the default) reads ~1x; `vs_scalar` compares
// against the kScalar rung, the plain C++ loop.
struct SimdResult {
  std::string name;
  double simd_ns = 0;
  double scalar_ns = 0;
  double tiled_ns = 0;
  double reference_ns = 0;
  double speedup() const { return simd_ns > 0 ? tiled_ns / simd_ns : 0; }
  double vs_scalar() const { return simd_ns > 0 ? scalar_ns / simd_ns : 0; }
};

template <typename Fn>
SimdResult BenchSimdOp(const std::string& name, int iters, Fn&& fn) {
  SimdResult result;
  result.name = name;
  SetKernelMode(KernelMode::kTiled);
  result.tiled_ns = TimeNs(iters, fn);
  SetKernelMode(KernelMode::kReference);
  result.reference_ns = TimeNs(iters, fn);
  SetKernelMode(KernelMode::kSimd);
  simd::ResetIsa();
  result.simd_ns = TimeNs(iters, fn);
  simd::ForceIsa(simd::Isa::kScalar);
  result.scalar_ns = TimeNs(iters, fn);
  simd::ResetIsa();
  SetKernelMode(KernelMode::kTiled);
  return result;
}

SimdResult BenchSimdMatMul(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  Matrix a(m, k), b(k, n), out;
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  return BenchSimdOp("MatMulInto " + std::to_string(m) + "x" + std::to_string(k) + "*" +
                         std::to_string(k) + "x" + std::to_string(n),
                     iters, [&] { MatMulInto(a, b, out); });
}

SimdResult BenchSimdAccATB(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  Matrix a(m, k), b(m, n), out(k, n);
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  return BenchSimdOp("AccumulateATransposeB " + std::to_string(m) + "x" + std::to_string(k) +
                         "^T*" + std::to_string(m) + "x" + std::to_string(n),
                     iters, [&] { AccumulateATransposeB(a, b, out); });
}

SimdResult BenchSimdAccABT(size_t m, size_t k, size_t n, int iters, Rng& rng) {
  Matrix a(m, n), b(k, n), out(m, k);
  a.FillUniform(rng, 1.0f);
  b.FillUniform(rng, 1.0f);
  return BenchSimdOp("AccumulateABTranspose " + std::to_string(m) + "x" + std::to_string(n) +
                         "*" + std::to_string(k) + "x" + std::to_string(n) + "^T",
                     iters, [&] { AccumulateABTranspose(a, b, out); });
}

// On AVX2-capable hardware the dispatch-selected GEMM must be at least 2x
// faster than the kScalar rung (the plain C++ tiled loop) on the
// representative mat-mat shapes. The baseline is the scalar rung, not the
// default mode: default-mode mat-mat runs the same vector kernel. Measured
// as the MINIMUM speedup across those shapes — the honest (weakest) claim.
// On hosts without AVX2 the check is an explicit SKIP, not a vacuous pass.
struct SimdGemmCheck {
  double required = 2.0;
  double measured_min = 0;
  std::string verdict;  // "PASS" | "FAIL" | "SKIP (no avx2)"
};

SimdGemmCheck CheckSimdGemm(const std::vector<SimdResult>& rows,
                            const std::vector<std::string>& representative) {
  SimdGemmCheck check;
  if (!simd::IsaSupported(simd::Isa::kAvx2)) {
    check.verdict = "SKIP (no avx2)";
    return check;
  }
  check.measured_min = 1e100;
  for (const SimdResult& row : rows) {
    for (const std::string& name : representative) {
      if (row.name == name) {
        check.measured_min = std::min(check.measured_min, row.vs_scalar());
      }
    }
  }
  check.verdict = check.measured_min >= check.required ? "PASS" : "FAIL";
  return check;
}

// ---- Adam step ----

// One Adam step over the paper-size model's parameter count (deeprest train
// --days=7 --wpd=48 --hidden=12), on the active rung and on the kScalar
// rung: the update AdamOptimizer::Step runs once per BPTT chunk.
struct AdamResult {
  size_t floats = 320872;
  double active_ns = 0;
  double scalar_ns = 0;
  double speedup() const { return active_ns > 0 ? scalar_ns / active_ns : 0; }
};

AdamResult BenchAdamStep(int iters, Rng& rng) {
  AdamResult result;
  const size_t n = result.floats;
  std::vector<float> grad(n), m(n, 0.0f), v(n, 0.0f), value(n);
  for (size_t i = 0; i < n; ++i) {
    grad[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    value[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  // Adam's defaults at step 1.
  const simd::AdamStepParams params = {
      .beta1 = 0.9f,
      .beta2 = 0.999f,
      .learning_rate = 1e-3f,
      .epsilon = 1e-8f,
      .bias1 = 1.0f - 0.9f,
      .bias2 = 1.0f - 0.999f,
  };
  const auto step = [&] {
    simd::AdamStep(grad.data(), m.data(), v.data(), value.data(), n, params);
  };
  simd::ResetIsa();
  result.active_ns = TimeNs(iters, step);
  simd::ForceIsa(simd::Isa::kScalar);
  result.scalar_ns = TimeNs(iters, step);
  simd::ResetIsa();
  return result;
}

// ---- Owned nonlinearities ----

// ns per element of simd::Sigmoid and simd::Tanh over one window's E·H
// gates (E = 76, H = 8), on the active rung and the kScalar rung (the scalar
// bodies), against glibc's expressions, which the bodies reproduce bit for
// bit.
struct NonlinearityResult {
  size_t elements = 608;
  double sigmoid_active_ns = 0, sigmoid_scalar_ns = 0, sigmoid_glibc_ns = 0;
  double tanh_active_ns = 0, tanh_scalar_ns = 0, tanh_glibc_ns = 0;
};

NonlinearityResult BenchNonlinearity(int iters, Rng& rng) {
  NonlinearityResult result;
  const size_t n = result.elements;
  std::vector<float> in(n), out(n);
  for (float& v : in) {
    v = static_cast<float>(rng.Uniform(-4.0, 4.0));  // gate pre-activations
  }
  const auto per_element = [&](auto&& fn) { return TimeNs(iters, fn) / n; };
  const auto sigmoid = [&] { simd::Sigmoid(in.data(), out.data(), n); };
  const auto tanh = [&] { simd::Tanh(in.data(), out.data(), n); };
  simd::ResetIsa();
  result.sigmoid_active_ns = per_element(sigmoid);
  result.tanh_active_ns = per_element(tanh);
  simd::ForceIsa(simd::Isa::kScalar);
  result.sigmoid_scalar_ns = per_element(sigmoid);
  result.tanh_scalar_ns = per_element(tanh);
  simd::ResetIsa();
  result.sigmoid_glibc_ns = per_element([&] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = 1.0f / (1.0f + std::exp(-in[i]));
    }
  });
  result.tanh_glibc_ns = per_element([&] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::tanh(in[i]);
    }
  });
  return result;
}

// ---- One all-expert GRU window ----

// One window of every expert's recurrence at E = 76 for one row: the whole
// LaneCoreStep, and its two simd::LaneAccumulate calls alone, against the
// per-expert layout's E pairs of MatMulInto (h · [Uz;Uk]^T, then
// (k.h) · Uh^T) that the lane layout replaced. Then the same window's
// backward with its dh chain: LaneCoreStepBackward against the per-expert
// step backward it replaced (PerExpertStepBackward below).
struct LaneStepResult {
  size_t hidden = 0;
  size_t experts = 76;
  double lane_step_ns = 0;
  double lane_accumulate_ns = 0;
  double per_expert_matmul_ns = 0;
  double lane_backward_ns = 0;
  double per_expert_backward_ns = 0;
  double speedup() const {
    return lane_accumulate_ns > 0 ? per_expert_matmul_ns / lane_accumulate_ns : 0;
  }
  double backward_speedup() const {
    return lane_backward_ns > 0 ? per_expert_backward_ns / lane_backward_ns : 0;
  }
};

// One expert's GRU step and its backward's buffers, in the expert layout.
struct ExpertStep {
  Matrix uz, uk, uh;                  // H x H
  std::vector<float> h, z, k, hc;     // H: the step's internals
  Matrix dh, dh_prev, d_kh, d_pre, d_k, d_z;  // H x 1
};

// The GRU step's backward one expert at a time, as the trainers ran it
// before the lane layout: scalar loops for the element-wise terms and one
// AccumulateATransposeB per U^T d, in the contract's order (dh_prev takes
// d_kh.k, Uk^T d_k, dh.z, Uz^T d_z).
void PerExpertStepBackward(ExpertStep& s) {
  const size_t hd = s.h.size();
  for (size_t c = 0; c < hd; ++c) {
    const float omz = -1.0f * s.z[c] + 1.0f;
    s.d_pre[c] = (s.dh[c] * omz) * (1.0f - s.hc[c] * s.hc[c]);
  }
  s.d_kh.Zero();
  AccumulateATransposeB(s.uh, s.d_pre, s.d_kh);
  s.dh_prev.Zero();
  for (size_t c = 0; c < hd; ++c) {
    s.d_k[c] = s.d_kh[c] * s.h[c];
    s.dh_prev[c] += s.d_kh[c] * s.k[c];
    s.d_k[c] = s.d_k[c] * s.k[c] * (1.0f - s.k[c]);
  }
  AccumulateATransposeB(s.uk, s.d_k, s.dh_prev);
  for (size_t c = 0; c < hd; ++c) {
    s.d_z[c] = -1.0f * (s.dh[c] * s.hc[c]);
    s.d_z[c] += s.dh[c] * s.h[c];
    s.dh_prev[c] += s.dh[c] * s.z[c];
    s.d_z[c] = s.d_z[c] * s.z[c] * (1.0f - s.z[c]);
  }
  AccumulateATransposeB(s.uz, s.d_z, s.dh_prev);
}

LaneStepResult BenchLaneStep(size_t hidden, int iters, Rng& rng) {
  LaneStepResult result;
  result.hidden = hidden;
  const size_t e = result.experts;
  LaneCores cores;
  ResetLaneCores(e, LaneCount(e), hidden, /*recurrent=*/true, cores);
  for (Matrix* m : {&cores.u_zk, &cores.u_h, &cores.bias}) {
    m->FillUniform(rng, 0.5f);
  }
  Matrix gates(cores.gates(), cores.lanes), state(hidden, cores.lanes);
  gates.FillUniform(rng, 1.0f);
  state.FillUniform(rng, 0.5f);
  LaneTape step;
  step.Resize(1, cores);
  // Each call restarts from the same state, so the timed work never drifts.
  Matrix h = state;
  result.lane_step_ns = TimeNs(iters, [&] {
    std::copy(state.data(), state.data() + state.size(), h.data());
    LaneCoreStep(cores, gates.data(), h.data(), step, 0);
  });
  // Zeroed with memset before each call, as LaneCoreStep does.
  Matrix rec(2 * hidden, cores.lanes), cand(hidden, cores.lanes);
  result.lane_accumulate_ns = TimeNs(iters, [&] {
    std::memset(rec.data(), 0, rec.size() * sizeof(float));
    simd::LaneAccumulate(state.data(), cores.u_zk.data(), rec.data(), hidden, 2 * hidden,
                         cores.lanes);
    std::memset(cand.data(), 0, cand.size() * sizeof(float));
    simd::LaneAccumulate(state.data(), cores.u_h.data(), cand.data(), hidden, hidden,
                         cores.lanes);
  });
  std::vector<Matrix> u_zk(e, Matrix(hidden, 2 * hidden)), u_h(e, Matrix(hidden, hidden));
  std::vector<Matrix> hs(e, Matrix(1, hidden));
  for (size_t i = 0; i < e; ++i) {
    u_zk[i].FillUniform(rng, 0.5f);
    u_h[i].FillUniform(rng, 0.5f);
    hs[i].FillUniform(rng, 0.5f);
  }
  Matrix rec_row, cand_row;
  result.per_expert_matmul_ns = TimeNs(iters, [&] {
    for (size_t i = 0; i < e; ++i) {
      MatMulInto(hs[i], u_zk[i], rec_row);
      MatMulInto(hs[i], u_h[i], cand_row);
    }
  });

  // The backward of the window the forward timing ran, chained into its
  // previous state, from the same dh each call.
  std::copy(state.data(), state.data() + state.size(), h.data());
  LaneCoreStep(cores, gates.data(), h.data(), step, 0);
  LaneBackward back;
  back.Resize(1, cores);
  for (Matrix* m : {&back.u_z, &back.u_k, &back.u_h}) {
    m->FillUniform(rng, 0.5f);
  }
  Matrix dh(hidden, cores.lanes);
  dh.FillUniform(rng, 0.1f);
  result.lane_backward_ns = TimeNs(iters, [&] {
    std::copy(dh.data(), dh.data() + dh.size(), back.dh.data());
    LaneCoreStepBackward(cores, step, 0, /*chain=*/true, back);
  });
  std::vector<ExpertStep> experts(e);
  for (size_t i = 0; i < e; ++i) {
    ExpertStep& x = experts[i];
    for (Matrix* m : {&x.uz, &x.uk, &x.uh}) {
      *m = Matrix(hidden, hidden);
      m->FillUniform(rng, 0.5f);
    }
    for (Matrix* m : {&x.dh, &x.dh_prev, &x.d_kh, &x.d_pre, &x.d_k, &x.d_z}) {
      *m = Matrix(hidden, 1);
    }
    x.h.resize(hidden);
    x.z.resize(hidden);
    x.k.resize(hidden);
    x.hc.resize(hidden);
    for (size_t c = 0; c < hidden; ++c) {
      const size_t lane = c * cores.lanes + i;
      x.h[c] = step.h[lane];
      x.z[c] = step.zk[lane];
      x.k[c] = step.zk[hidden * cores.lanes + lane];
      x.hc[c] = step.hc[lane];
    }
  }
  result.per_expert_backward_ns = TimeNs(iters, [&] {
    for (size_t i = 0; i < e; ++i) {
      ExpertStep& x = experts[i];
      for (size_t c = 0; c < hidden; ++c) {
        x.dh[c] = dh[c * cores.lanes + i];
      }
      PerExpertStepBackward(x);
    }
  });
  return result;
}

// ---- End-to-end training / inference ----

struct TrainResult {
  double optimized_s = 0;
  double reference_s = 0;
  double infer_optimized_s = 0;  // one full-series estimation pass
  double infer_reference_s = 0;
  std::vector<float> optimized_losses;
  std::vector<float> reference_losses;
  double train_speedup() const {
    return optimized_s > 0 ? reference_s / optimized_s : 0;
  }
  double infer_speedup() const {
    return infer_optimized_s > 0 ? infer_reference_s / infer_optimized_s : 0;
  }
};

EstimatorConfig TrainConfig(const BenchOptions& options) {
  EstimatorConfig config;
  config.hidden_dim = 16;
  config.epochs = options.smoke ? 2 : 10;
  config.bptt_chunk = 48;
  config.warm_start = false;
  config.seed = 3;
  return config;
}

TrainResult BenchTraining(const KernelFixture& fixture, const BenchOptions& options) {
  const EstimatorConfig config = TrainConfig(options);
  const int reps = options.smoke ? 1 : 5;  // best-of-5: the box is noisy
  TrainResult result;

  const auto train_once = [&](bool optimized, double& best, std::vector<float>& losses,
                              double& infer) {
    SetKernelMode(optimized ? KernelMode::kTiled : KernelMode::kReference);
    best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      DeepRestEstimator estimator(config);
      const WallTimer timer;
      estimator.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
      best = std::min(best, timer.Seconds());
      losses = estimator.epoch_losses();
    }
    DeepRestEstimator estimator(config);
    estimator.Learn(fixture.traces, fixture.metrics, 0, fixture.windows, fixture.resources);
    const auto features =
        estimator.features().ExtractSeries(fixture.traces, 0, fixture.windows);
    const int infer_reps = options.smoke ? 2 : 10;
    const WallTimer timer;
    for (int i = 0; i < infer_reps; ++i) {
      const auto estimates = estimator.EstimateFromFeatures(features);
      (void)estimates;
    }
    infer = timer.Seconds() / infer_reps;
  };

  train_once(true, result.optimized_s, result.optimized_losses, result.infer_optimized_s);
  train_once(false, result.reference_s, result.reference_losses, result.infer_reference_s);
  SetKernelMode(KernelMode::kTiled);
  return result;
}

// ---- Parallel training harness ----

struct ParallelResult {
  size_t jobs = 0;
  size_t threads = 0;
  bool skipped = false;  // 1-core host: the leg would only measure noise
  double sequential_s = 0;
  double parallel_s = 0;
  double speedup() const { return parallel_s > 0 ? sequential_s / parallel_s : 0; }
};

ParallelResult BenchParallelTraining(const KernelFixture& fixture,
                                     const BenchOptions& options) {
  ParallelResult result;
  result.jobs = options.smoke ? 2 : 4;
  // At least two workers: DefaultTrainThreads() follows the core count, and
  // on a single-core box that made the "parallel" leg a 1-thread rerun of
  // the baseline, reporting speedup ~1.0 by construction.
  result.threads = std::max<size_t>(2, DefaultTrainThreads());
  // On a single hardware core even the 2-thread run is just the baseline
  // with context-switch overhead: any "speedup" it reports is timing noise
  // dressed up as a result. Emit an explicit SKIP verdict instead (the JSON
  // omits the timing keys; bench_diff treats missing keys as informational).
  if (std::thread::hardware_concurrency() <= 1) {
    result.skipped = true;
    return result;
  }

  std::vector<TrainJob> jobs;
  for (size_t i = 0; i < result.jobs; ++i) {
    TrainJob job;
    job.config = TrainConfig(options);
    job.config.seed = 3 + i;  // independent models: distinct seeds
    job.traces = &fixture.traces;
    job.metrics = &fixture.metrics;
    job.from = 0;
    job.to = fixture.windows;
    job.resources = fixture.resources;
    jobs.push_back(job);
  }

  {
    const WallTimer timer;
    const auto models = TrainEstimatorsParallel(jobs, 1);
    result.sequential_s = timer.Seconds();
  }
  {
    const WallTimer timer;
    const auto models = TrainEstimatorsParallel(jobs, result.threads);
    result.parallel_s = timer.Seconds();
  }
  return result;
}

// ---- JSON output ----

void WriteJson(const BenchOptions& options, const KernelFixture& fixture,
               const std::vector<GemmResult>& gemm, const BatchedGemmResult& batched,
               const std::vector<SimdResult>& simd_rows, const SimdGemmCheck& simd_check,
               const AdamResult& adam, const NonlinearityResult& nonlinear,
               const std::vector<LaneStepResult>& lane_steps, const TrainResult& train,
               const ParallelResult& par) {
  std::FILE* f = std::fopen(options.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", options.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"smoke\": %s,\n", options.smoke ? "true" : "false");
  std::fprintf(f, "  \"windows\": %zu,\n", fixture.windows);
  std::fprintf(f, "  \"gemm\": {\n");
  for (size_t i = 0; i < gemm.size(); ++i) {
    std::fprintf(f,
                 "    \"%s\": {\"tiled_ns\": %.1f, \"reference_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 gemm[i].name.c_str(), gemm[i].tiled_ns, gemm[i].reference_ns,
                 gemm[i].speedup(), i + 1 < gemm.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"batched_gemm\": {\"batch\": %zu, \"gemv_ns\": %.1f, \"gemm_ns\": %.1f, "
               "\"speedup\": %.3f},\n",
               batched.batch, batched.gemv_ns, batched.gemm_ns, batched.speedup());
  std::fprintf(f, "  \"simd\": {\n");
  std::fprintf(f, "    \"host_best_isa\": \"%s\",\n", simd::IsaName(simd::BestSupportedIsa()));
  std::fprintf(f, "    \"active_isa\": \"%s\",\n", simd::IsaName(simd::ActiveIsa()));
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < simd_rows.size(); ++i) {
    const SimdResult& r = simd_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"simd_ns\": %.1f, \"scalar_ns\": %.1f, "
                 "\"tiled_ns\": %.1f, \"reference_ns\": %.1f, \"speedup\": %.3f, "
                 "\"vs_scalar\": %.3f}%s\n",
                 r.name.c_str(), r.simd_ns, r.scalar_ns, r.tiled_ns, r.reference_ns,
                 r.speedup(), r.vs_scalar(), i + 1 < simd_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  if (simd_check.verdict == "PASS" || simd_check.verdict == "FAIL") {
    std::fprintf(f,
                 "  \"simd_gemm_check\": {\"required\": %.1f, \"measured_min\": %.3f, "
                 "\"verdict\": \"%s\"},\n",
                 simd_check.required, simd_check.measured_min, simd_check.verdict.c_str());
  } else {
    // Honest SKIP: no numbers that could be mistaken for a measurement.
    std::fprintf(f, "  \"simd_gemm_check\": {\"verdict\": \"%s\"},\n",
                 simd_check.verdict.c_str());
  }
  std::fprintf(f,
               "  \"adam_step\": {\"floats\": %zu, \"active_ns\": %.1f, \"scalar_ns\": %.1f, "
               "\"speedup\": %.3f},\n",
               adam.floats, adam.active_ns, adam.scalar_ns, adam.speedup());
  std::fprintf(f,
               "  \"nonlinearity\": {\"elements\": %zu, \"sigmoid_active_ns\": %.2f, "
               "\"sigmoid_scalar_ns\": %.2f, \"sigmoid_glibc_ns\": %.2f, "
               "\"tanh_active_ns\": %.2f, \"tanh_scalar_ns\": %.2f, "
               "\"tanh_glibc_ns\": %.2f},\n",
               nonlinear.elements, nonlinear.sigmoid_active_ns, nonlinear.sigmoid_scalar_ns,
               nonlinear.sigmoid_glibc_ns, nonlinear.tanh_active_ns, nonlinear.tanh_scalar_ns,
               nonlinear.tanh_glibc_ns);
  std::fprintf(f, "  \"lane_step\": [\n");
  for (size_t i = 0; i < lane_steps.size(); ++i) {
    const LaneStepResult& r = lane_steps[i];
    std::fprintf(f,
                 "    {\"name\": \"E=%zu H=%zu\", \"lane_step_ns\": %.1f, "
                 "\"lane_accumulate_ns\": %.1f, \"per_expert_matmul_ns\": %.1f, "
                 "\"speedup\": %.3f, \"lane_backward_ns\": %.1f, "
                 "\"per_expert_backward_ns\": %.1f, \"backward_speedup\": %.3f}%s\n",
                 r.experts, r.hidden, r.lane_step_ns, r.lane_accumulate_ns,
                 r.per_expert_matmul_ns, r.speedup(), r.lane_backward_ns,
                 r.per_expert_backward_ns, r.backward_speedup(),
                 i + 1 < lane_steps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"train\": {\"optimized_s\": %.4f, \"reference_s\": %.4f, "
               "\"speedup\": %.3f, \"optimized_ns_per_window\": %.0f},\n",
               train.optimized_s, train.reference_s, train.train_speedup(),
               train.optimized_s * 1e9 / fixture.windows);
  std::fprintf(f,
               "  \"inference\": {\"optimized_s\": %.5f, \"reference_s\": %.5f, "
               "\"speedup\": %.3f, \"optimized_ns_per_window\": %.0f},\n",
               train.infer_optimized_s, train.infer_reference_s, train.infer_speedup(),
               train.infer_optimized_s * 1e9 / fixture.windows);
  if (par.skipped) {
    // No sequential_s/parallel_s/speedup keys: a 1-core "speedup" is noise,
    // and bench_diff reports missing keys as informational, not regressed.
    std::fprintf(f,
                 "  \"parallel_train\": {\"jobs\": %zu, \"threads\": %zu, "
                 "\"hardware_concurrency\": %u, \"verdict\": \"SKIP (1 hardware core)\"},\n",
                 par.jobs, par.threads, std::thread::hardware_concurrency());
  } else {
    std::fprintf(f,
                 "  \"parallel_train\": {\"jobs\": %zu, \"threads\": %zu, "
                 "\"hardware_concurrency\": %u, \"sequential_s\": %.4f, "
                 "\"parallel_s\": %.4f, \"speedup\": %.3f, \"verdict\": \"ok\"},\n",
                 par.jobs, par.threads, std::thread::hardware_concurrency(),
                 par.sequential_s, par.parallel_s, par.speedup());
  }
  std::fprintf(f, "  \"losses_bit_identical\": %s\n",
               train.optimized_losses == train.reference_losses ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Run(const BenchOptions& options) {
  PrintBenchHeader("hot-path kernels (perf)",
                   "tiled GEMM / lane GRU step vs the preserved reference kernels");

  // GEMM shapes from the actual model hot loops: the input projection
  // (hidden x feature_dim matvec), the recurrent matvec, the attention
  // mixing product, and the two gradient-accumulation kernels.
  Rng rng(19);
  const int small = options.smoke ? 500 : 20000;
  const int medium = options.smoke ? 100 : 2000;
  std::vector<GemmResult> gemm;
  gemm.push_back(BenchMatMul(16, 256, 1, small, rng));
  gemm.push_back(BenchMatMul(16, 16, 1, small, rng));
  gemm.push_back(BenchMatMul(12, 12, 16, medium, rng));
  gemm.push_back(BenchMatMul(16, 256, 16, medium, rng));  // batch-major input projection
  gemm.push_back(BenchMatMul(64, 64, 64, medium, rng));
  gemm.push_back(BenchAccATB(16, 256, 1, small, rng));
  gemm.push_back(BenchAccABT(16, 256, 1, small, rng));
  gemm.push_back(BenchAccABT(76, 76, 12, medium, rng));  // attention backward's d_alpha
  std::printf("%-44s %12s %12s %8s\n", "kernel", "tiled ns", "reference ns", "speedup");
  for (const GemmResult& g : gemm) {
    std::printf("%-44s %12.1f %12.1f %7.2fx\n", g.name.c_str(), g.tiled_ns, g.reference_ns,
                g.speedup());
  }

  const BatchedGemmResult batched = BenchBatchedGemm(/*h=*/16, /*b=*/16, small, rng);
  std::printf("\nbatched 16x16 recurrent step, batch %zu:\n", batched.batch);
  std::printf("  %zu GEMVs  %10.1f ns    one GEMM %10.1f ns    speedup %5.2fx\n",
              batched.batch, batched.gemv_ns, batched.gemm_ns, batched.speedup());

  // Same shapes through the runtime-dispatched SIMD kernels: dispatch-
  // selected vs forced-scalar vs tiled vs reference, all via the Matrix
  // entry points in kSimd mode.
  std::vector<SimdResult> simd_rows;
  simd_rows.push_back(BenchSimdMatMul(16, 256, 1, small, rng));
  simd_rows.push_back(BenchSimdMatMul(16, 16, 1, small, rng));
  simd_rows.push_back(BenchSimdMatMul(12, 12, 16, medium, rng));
  simd_rows.push_back(BenchSimdMatMul(16, 256, 16, medium, rng));
  simd_rows.push_back(BenchSimdMatMul(64, 64, 64, medium, rng));
  simd_rows.push_back(BenchSimdAccATB(16, 256, 1, small, rng));
  simd_rows.push_back(BenchSimdAccABT(16, 256, 1, small, rng));
  simd_rows.push_back(BenchSimdAccABT(76, 76, 12, medium, rng));
  std::printf("\nSIMD dispatch (host best: %s, active: %s):\n",
              simd::IsaName(simd::BestSupportedIsa()), simd::IsaName(simd::ActiveIsa()));
  std::printf("%-44s %10s %10s %10s %10s %8s %9s\n", "kernel", "simd ns", "scalar ns",
              "tiled ns", "ref ns", "vs tiled", "vs scalar");
  for (const SimdResult& r : simd_rows) {
    std::printf("%-44s %10.1f %10.1f %10.1f %10.1f %7.2fx %8.2fx\n", r.name.c_str(),
                r.simd_ns, r.scalar_ns, r.tiled_ns, r.reference_ns, r.speedup(),
                r.vs_scalar());
  }
  const SimdGemmCheck simd_check = CheckSimdGemm(
      simd_rows, {"MatMulInto 16x256*256x16", "MatMulInto 64x64*64x64"});
  if (simd_check.verdict == "SKIP (no avx2)") {
    std::printf("  gemm >=2x vs scalar check: SKIP (no avx2 on this host)\n");
  } else {
    std::printf("  gemm >=2x vs scalar check: %s (min %.2fx over representative mat-mat "
                "shapes)\n",
                simd_check.verdict.c_str(), simd_check.measured_min);
  }

  const AdamResult adam = BenchAdamStep(options.smoke ? 5 : 200, rng);
  std::printf("\nAdam step, %zu floats (active: %s):\n", adam.floats,
              simd::IsaName(simd::ActiveIsa()));
  std::printf("  active %10.1f ns    scalar %10.1f ns    speedup %5.2fx\n", adam.active_ns,
              adam.scalar_ns, adam.speedup());

  const NonlinearityResult nonlinear = BenchNonlinearity(options.smoke ? 50 : 20000, rng);
  std::printf("\nOwned nonlinearities, ns per element over %zu (active: %s):\n",
              nonlinear.elements, simd::IsaName(simd::ActiveIsa()));
  std::printf("  sigmoid  active %6.2f    scalar %6.2f    glibc %6.2f\n",
              nonlinear.sigmoid_active_ns, nonlinear.sigmoid_scalar_ns,
              nonlinear.sigmoid_glibc_ns);
  std::printf("  tanh     active %6.2f    scalar %6.2f    glibc %6.2f\n",
              nonlinear.tanh_active_ns, nonlinear.tanh_scalar_ns, nonlinear.tanh_glibc_ns);

  std::vector<LaneStepResult> lane_steps;
  for (size_t hidden : {8u, 12u}) {
    lane_steps.push_back(BenchLaneStep(hidden, options.smoke ? 50 : 20000, rng));
  }
  std::printf("\nOne all-expert GRU window and its backward (lane layout) vs per-expert "
              "MatMulInto pairs and step backwards:\n");
  for (const LaneStepResult& r : lane_steps) {
    std::printf("  E=%zu H=%-3zu lane step %9.1f ns    LaneAccumulate x2 %9.1f ns    "
                "%zu MatMulInto pairs %9.1f ns    speedup %5.2fx\n",
                r.experts, r.hidden, r.lane_step_ns, r.lane_accumulate_ns, r.experts,
                r.per_expert_matmul_ns, r.speedup());
    std::printf("  E=%zu H=%-3zu lane backward %9.1f ns    %zu per-expert backwards %9.1f ns"
                "    speedup %5.2fx\n",
                r.experts, r.hidden, r.lane_backward_ns, r.experts, r.per_expert_backward_ns,
                r.backward_speedup());
  }

  const KernelFixture fixture(options.smoke ? 4 : 12, options.smoke ? 12 : 48);
  const TrainResult train = BenchTraining(fixture, options);
  std::printf("\nEnd-to-end (%zu windows, %zu epochs, best of %d):\n", fixture.windows,
              TrainConfig(options).epochs, options.smoke ? 1 : 5);
  PrintTimed("  train optimized", train.optimized_s, fixture.windows);
  PrintTimed("  train reference", train.reference_s, fixture.windows);
  std::printf("  train speedup %.2fx\n", train.train_speedup());
  PrintTimed("  inference optimized", train.infer_optimized_s, fixture.windows);
  PrintTimed("  inference reference", train.infer_reference_s, fixture.windows);
  std::printf("  inference speedup %.2fx\n", train.infer_speedup());
  std::printf("  epoch losses bit-identical: %s\n",
              train.optimized_losses == train.reference_losses ? "yes" : "NO");

  const ParallelResult par = BenchParallelTraining(fixture, options);
  std::printf("\nParallel harness (%zu jobs, %zu threads):\n", par.jobs, par.threads);
  if (par.skipped) {
    std::printf("  SKIP (1 hardware core): a parallel run here measures context-switch "
                "noise, not scaling\n");
  } else {
    PrintTimed("  sequential", par.sequential_s, 0);
    PrintTimed("  parallel", par.parallel_s, 0);
    std::printf("  speedup %.2fx\n", par.speedup());
  }

  WriteJson(options, fixture, gemm, batched, simd_rows, simd_check, adam, nonlinear, lane_steps,
            train, par);
  std::printf("\nwrote %s\n", options.out.c_str());
  // Exit nonzero on a bit-exactness break always; on a failed SIMD gemm
  // check only in full mode (smoke iteration counts are too noisy to gate).
  const bool simd_ok = options.smoke || simd_check.verdict != "FAIL";
  return train.optimized_losses == train.reference_losses && simd_ok ? 0 : 1;
}

}  // namespace
}  // namespace deeprest

int main(int argc, char** argv) {
  deeprest::BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  return deeprest::Run(options);
}

#include "src/nn/simd/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "src/nn/simd/kernels.h"

namespace deeprest {
namespace simd {
namespace {

using detail::KernelTable;

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::ScalarTable();
    case Isa::kAvx2:
      return detail::Avx2Table();
    case Isa::kAvx512:
      return detail::Avx512Table();
    case Isa::kNeon:
      return detail::NeonTable();
  }
  return nullptr;
}

bool HostSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // GCC's avx512f target implies AVX2, so the avx512 TU may carry AVX2
      // encodings (true of every shipped AVX-512 part, but probe it rather
      // than assume).
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
      // NEON presence is a compile-time fact on aarch64; the table is null
      // when the binary was not built for ARM.
      return detail::NeonTable() != nullptr;
  }
  return false;
}

// One rung down the ladder. kNeon has no vector rung below it.
Isa NextRungDown(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return Isa::kAvx2;
    case Isa::kAvx2:
    case Isa::kNeon:
    case Isa::kScalar:
      return Isa::kScalar;
  }
  return Isa::kScalar;
}

Isa ClampToSupported(Isa wanted) {
  Isa isa = wanted;
  while (isa != Isa::kScalar && !IsaSupported(isa)) {
    isa = NextRungDown(isa);
  }
  return isa;
}

// The selection is published as (isa, table) through a single pointer so a
// reader never sees a torn pair. -1 in g_active_isa means "not yet
// initialized"; first use runs the env-var default below.
std::atomic<int> g_active_isa{-1};
std::atomic<const KernelTable*> g_active_table{nullptr};

Isa DefaultIsa() {
  if (const char* spec = std::getenv("DEEPREST_SIMD")) {
    const std::string s(spec);
    if (s == "auto") return BestSupportedIsa();
    if (s == "scalar") return ClampToSupported(Isa::kScalar);
    if (s == "avx2") return ClampToSupported(Isa::kAvx2);
    if (s == "avx512") return ClampToSupported(Isa::kAvx512);
    if (s == "neon") return ClampToSupported(Isa::kNeon);
    // Unknown spec: ignore, same as SelectIsaFromSpec.
  }
  return BestSupportedIsa();
}

void Publish(Isa isa) {
  g_active_table.store(TableFor(isa), std::memory_order_release);
  g_active_isa.store(static_cast<int>(isa), std::memory_order_release);
}

const KernelTable& ActiveTable() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    Publish(DefaultIsa());
    table = g_active_table.load(std::memory_order_acquire);
  }
  return *table;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) { return HostSupports(isa) && TableFor(isa) != nullptr; }

Isa BestSupportedIsa() {
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (IsaSupported(isa)) return isa;
  }
  return Isa::kScalar;
}

Isa ActiveIsa() {
  int raw = g_active_isa.load(std::memory_order_acquire);
  if (raw < 0) {
    Publish(DefaultIsa());
    raw = g_active_isa.load(std::memory_order_acquire);
  }
  return static_cast<Isa>(raw);
}

Isa ForceIsa(Isa wanted) {
  const Isa selected = ClampToSupported(wanted);
  Publish(selected);
  return selected;
}

bool SelectIsaFromSpec(const std::string& spec) {
  if (spec == "auto") {
    Publish(BestSupportedIsa());
    return true;
  }
  if (spec == "scalar") {
    ForceIsa(Isa::kScalar);
    return true;
  }
  if (spec == "avx2") {
    ForceIsa(Isa::kAvx2);
    return true;
  }
  if (spec == "avx512") {
    ForceIsa(Isa::kAvx512);
    return true;
  }
  if (spec == "neon") {
    ForceIsa(Isa::kNeon);
    return true;
  }
  return false;
}

void ResetIsa() { Publish(DefaultIsa()); }

void MatMul(const float* a, const float* b, float* out, size_t n, size_t k, size_t m) {
  ActiveTable().matmul(a, b, out, n, k, m);
}

void AccumulateATransposeB(const float* a, const float* b, float* out, size_t n, size_t p,
                           size_t q) {
  ActiveTable().acc_atb(a, b, out, n, p, q);
}

void AccumulateABTranspose(const float* a, const float* b, float* out, size_t n, size_t k,
                           size_t m) {
  ActiveTable().acc_abt(a, b, out, n, k, m);
}

void Add(const float* a, const float* b, float* out, size_t n) {
  ActiveTable().add(a, b, out, n);
}

void Axpby(const float* a, const float* b, float scale, float* out, size_t n) {
  ActiveTable().axpby(a, b, scale, out, n);
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  ActiveTable().hadamard(a, b, out, n);
}

void AdamStep(const float* grad, float* m, float* v, float* value, size_t n,
              const AdamStepParams& params) {
  ActiveTable().adam_step(grad, m, v, value, n, params);
}

void Sigmoid(const float* a, float* out, size_t n) { ActiveTable().sigmoid(a, out, n); }

void Tanh(const float* a, float* out, size_t n) { ActiveTable().tanh(a, out, n); }

void LaneAccumulate(const float* a, const float* w, float* out, size_t k, size_t m,
                    size_t lanes) {
  ActiveTable().lane_accumulate(a, w, out, k, m, lanes);
}

void ScalarGemv(const float* a, const float* b, float* out, size_t n, size_t k) {
  detail::ScalarTable()->matmul(a, b, out, n, k, 1);
}

}  // namespace simd
}  // namespace deeprest

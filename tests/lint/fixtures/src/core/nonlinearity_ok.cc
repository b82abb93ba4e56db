// Fixture: the model's code with owned nonlinearities — owned-nonlinearities
// must stay silent: the gates go through simd::Sigmoid / simd::Tanh, a libm
// call with an allow() grant (same line or the line above) passes, and
// other libm functions are out of scope.
#include <cmath>
#include <cstddef>

namespace deeprest {
namespace simd {
void Sigmoid(const float* a, float* out, size_t n);
void Tanh(const float* a, float* out, size_t n);
}  // namespace simd

void Gates(const float* pre, float* z, float* hc, size_t n) {
  simd::Sigmoid(pre, z, n);
  simd::Tanh(pre, hc, n);
}

double MaskForReport(double logit) {
  return 1.0 / (1.0 + std::exp(-logit));  // deeprest-lint: allow(owned-nonlinearities)
}

double PoissonLimit(double lambda) {
  // deeprest-lint: allow(owned-nonlinearities)
  return std::exp(-lambda);
}

double Magnitude(double v) { return std::fabs(std::log(v)); }

}  // namespace deeprest

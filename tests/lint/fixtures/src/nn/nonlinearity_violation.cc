// Fixture: libm nonlinearities in the model's code — owned-nonlinearities
// must fire on std::exp, std::tanh, expf and tanhf.
#include <cmath>

namespace deeprest {

float GateSigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

float GateTanh(float x) { return std::tanh(x); }

float CGateSigmoid(float x) { return 1.0f / (1.0f + expf(-x)); }

float CGateTanh(float x) { return tanhf(x); }

}  // namespace deeprest

#include "src/nn/rng.h"

#include <cmath>

namespace deeprest {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) {
    s = sm.Next();
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBelow(uint64_t n) {
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = n * (UINT64_MAX / n);
  uint64_t v = NextU64();
  while (v >= limit) {
    v = NextU64();
  }
  return v % n;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

int Rng::NextPoisson(double lambda) {
  if (lambda <= 0.0) {
    return 0;
  }
  if (lambda < 30.0) {
    // The simulator's Poisson sampler, in double: not a model nonlinearity.
    const double limit = std::exp(-lambda);  // deeprest-lint: allow(owned-nonlinearities)
    double product = NextDouble();
    int count = 0;
    while (product > limit) {
      product *= NextDouble();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double value = Gaussian(lambda, std::sqrt(lambda));
  return value < 0.0 ? 0 : static_cast<int>(value + 0.5);
}

Rng Rng::Split() { return Rng(NextU64()); }

}  // namespace deeprest

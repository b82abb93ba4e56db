// Arithmetic of the end-to-end benchmark, kept free of the DeepRest libraries
// so tests/bench_math_test.cc can check it in isolation: the percentile rule,
// the open-loop arrival schedule, Zipf popularity, the capacity search, span
// self time and metric-name validation.
#ifndef E2EBENCH_BENCH_MATH_H_
#define E2EBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace e2ebench {

// Samples needed beyond a reported percentile: a tail figure resting on fewer
// than this many samples is noise.
inline constexpr size_t kMinTailSamples = 10;

// 1-based nearest rank of quantile q in n samples: ceil(q * n), in [1, n].
inline size_t NearestRank(size_t n, double q) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(raw, 1.0)), 1, n);
}

// Samples strictly beyond the nearest-rank quantile q.
inline size_t SamplesBeyond(size_t n, double q) { return n == 0 ? 0 : n - NearestRank(n, q); }

// Smallest sample count whose quantile q has kMinTailSamples beyond it.
inline size_t SamplesForTail(double q) {
  size_t n = static_cast<size_t>(
      std::ceil(static_cast<double>(kMinTailSamples) / (1.0 - q) - 1e-6));
  while (SamplesBeyond(n, q) < kMinTailSamples) {
    ++n;
  }
  return n;
}

// Nearest-rank quantile; NaN when empty. Infinite samples (failed requests)
// sort last, so a failure counts as missing every latency limit.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Deterministic 64-bit generator (splitmix64) for schedules and draws that
// must not depend on any library's RNG.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1]: never 0, so -log(u) is finite.
  double Unit() { return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Open-loop Poisson arrivals: the send offsets (seconds from phase start) of
// the first `count` arrivals of a process with the given mean rate. Same
// seed, same schedule.
inline std::vector<double> PoissonArrivals(uint64_t seed, double rate, size_t count) {
  std::vector<double> due;
  due.reserve(count);
  SplitMix rng(seed);
  double t = 0.0;
  while (due.size() < count) {
    t += -std::log(rng.Unit()) / rate;
    due.push_back(t);
  }
  return due;
}

// Zipf(s) over ranks [0, n): rank k drawn with weight 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  size_t Draw(SplitMix& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// --- Capacity search -------------------------------------------------------

// One open-loop probe at a fixed offered rate.
struct CapacityProbe {
  double rate = 0.0;
  double tail_ms = 0.0;  // the probe's tail latency (infinite when requests failed)
  bool pass = false;     // tail under the limit, no failures, backlog not growing
};

struct CapacityResult {
  double capacity = 0.0;  // interpolated highest passing rate
  double lo = 0.0;        // highest rate probed that passed
  double hi = 0.0;        // lowest rate probed that failed (0 when none failed)
  std::vector<CapacityProbe> probes;
};

// The benchmark's search steps: the final bracket is 1.25^(1/2) = 1.118x wide,
// finer than the benchmark's 0.25 bounds.
inline constexpr double kCapacityGrowth = 1.25;
inline constexpr size_t kCapacityBisections = 1;

// Brackets the knee by stepping the rate geometrically from `start` (up while
// probes pass, down while they fail), then bisects the bracket `bisections`
// times, so the final bracket is growth^(1 / 2^bisections) wide. The
// reported capacity interpolates the limit crossing linearly between the
// bracket's tail latencies; a bracket whose upper probe failed for another
// reason (failures, growing backlog) reports its lower end. Rates are capped
// to [min_rate, max_rate]; a search that never fails reports max_rate, one
// that never passes reports 0.
inline CapacityResult SearchCapacity(const std::function<CapacityProbe(double)>& probe,
                                     double start, double growth, size_t bisections,
                                     double limit_ms, double min_rate, double max_rate,
                                     size_t max_steps = 8) {
  CapacityResult result;
  const auto run = [&](double rate) {
    CapacityProbe p = probe(rate);
    p.rate = rate;
    result.probes.push_back(p);
    return p;
  };
  CapacityProbe lo{}, hi{};
  bool have_lo = false, have_hi = false;
  double rate = std::clamp(start, min_rate, max_rate);
  for (size_t step = 0; step < max_steps; ++step) {
    const CapacityProbe p = run(rate);
    if (p.pass) {
      lo = p;
      have_lo = true;
      if (have_hi || rate >= max_rate) {
        break;
      }
      rate = std::min(rate * growth, max_rate);
    } else {
      hi = p;
      have_hi = true;
      if (have_lo || rate <= min_rate) {
        break;
      }
      rate = std::max(rate / growth, min_rate);
    }
  }
  if (!have_lo) {
    result.hi = have_hi ? hi.rate : 0.0;
    return result;
  }
  if (!have_hi) {
    result.capacity = result.lo = lo.rate;
    return result;
  }
  for (size_t i = 0; i < bisections; ++i) {
    const CapacityProbe p = run(std::sqrt(lo.rate * hi.rate));
    (p.pass ? lo : hi) = p;
  }
  result.lo = lo.rate;
  result.hi = hi.rate;
  result.capacity = lo.rate;
  if (std::isfinite(hi.tail_ms) && hi.tail_ms > limit_ms && lo.tail_ms <= limit_ms &&
      hi.tail_ms > lo.tail_ms) {
    const double f = (limit_ms - lo.tail_ms) / (hi.tail_ms - lo.tail_ms);
    result.capacity = lo.rate + f * (hi.rate - lo.rate);
  }
  return result;
}

// --- Spans -----------------------------------------------------------------

// One recorded interval. parent is an index into the same span list, or -1.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

// Length of the union of [start, end) intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) {
      continue;
    }
    if (!open || s > cur_end) {
      if (open) {
        covered += cur_end - cur_start;
      }
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) {
    covered += cur_end - cur_start;
  }
  return covered;
}

// Self time of every span: its duration minus the part of it that its
// children cover. Children may overlap each other (concurrent calls); the
// overlap is counted once, and child time outside the parent is ignored.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      const Span& p = spans[static_cast<size_t>(span.parent)];
      const int64_t s = std::max(span.start_ns, p.start_ns);
      const int64_t e = std::min(span.end_ns, p.end_ns);
      if (e > s) {
        children[static_cast<size_t>(span.parent)].push_back({s, e});
      }
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) - UnionLength(std::move(children[i]));
  }
  return self;
}

// --- Names -----------------------------------------------------------------

// Metric and workload names: start with a letter or digit, at most 64 of
// [A-Za-z0-9_.-].
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_MATH_H_

// In-memory span recorder for the traced benchmark run. Spans are recorded
// in the benchmark's own code around calls into a layer's public functions
// and written out when the run ends. A disabled tracer records nothing and
// costs one branch per call site, which is what the untraced run uses.
#ifndef E2EBENCH_TRACER_H_
#define E2EBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_math.h"

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span; returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) {
      return -1;
    }
    const int64_t start = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, start, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) {
      return;
    }
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }

  // Records an interval measured elsewhere (e.g. a request's due-to-done).
  void Record(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent = -1,
              uint64_t request = 0) {
    if (!enabled_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
  }

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Durations in milliseconds of every span with this name.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      }
    }
    return out;
  }

  // Total self time per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const {
    const std::vector<Span> spans = Spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      out[spans[i].name] += static_cast<double>(self[i]) / 1e9;
    }
    return out;
  }

  // One JSON object per line: name, start/end (ns), parent, request.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent = -1, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACER_H_

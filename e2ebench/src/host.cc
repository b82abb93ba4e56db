#include "host.h"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <numeric>

#include "src/nn/matrix.h"
#include "src/nn/simd/dispatch.h"

namespace e2ebench {

namespace {

const char* KernelModeLabel(deeprest::KernelMode mode) {
  switch (mode) {
    case deeprest::KernelMode::kTiled:
      return "tiled";
    case deeprest::KernelMode::kReference:
      return "reference";
    case deeprest::KernelMode::kSimd:
      return "simd";
  }
  return "unknown";
}

}  // namespace

std::string HostFingerprint::Json() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"hardware_concurrency\": " + std::to_string(hardware_concurrency) +
         ", \"isa\": \"" + isa + "\", \"kernel_mode\": \"" + kernel_mode +
         "\", \"build_type\": \"" + build_type + "\", \"compiler\": \"" + compiler + "\"}";
}

HostFingerprint ProbeHost() {
  HostFingerprint host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&set))
                   : static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  host.hardware_concurrency = std::thread::hardware_concurrency();
  host.isa = deeprest::simd::IsaName(deeprest::simd::ActiveIsa());
  host.kernel_mode = KernelModeLabel(deeprest::GetKernelMode());
  host.build_type = E2EBENCH_BUILD_TYPE;
  host.compiler = E2EBENCH_COMPILER;
  return host;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) {
    return 0.0;
  }
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

RssSampler::RssSampler() : peak_mb_(CurrentRssMb()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      const double now = CurrentRssMb();
      if (now > peak_mb_.load(std::memory_order_relaxed)) {
        peak_mb_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    const double now = CurrentRssMb();
    if (now > peak_mb_.load(std::memory_order_relaxed)) {
      peak_mb_.store(now, std::memory_order_relaxed);
    }
  }
  return peak_mb_.load(std::memory_order_relaxed);
}

namespace {

// Thread CPU nanoseconds of a fixed L1-resident multiply-add loop on the
// calling thread's CPU; the best of two runs, so an interrupt does not count.
int64_t CalibrationNs() {
  static thread_local std::vector<float> data(8192, 1.0f);
  volatile float sink = 0.0f;
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int run = 0; run < 2; ++run) {
    timespec t0{}, t1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    float acc = 0.0f;
    for (int rep = 0; rep < 24; ++rep) {
      for (float& v : data) {
        acc += v * 1.0000001f;
        v = v * 0.9999f + 0.0001f;
      }
    }
    sink = acc;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    best = std::min<int64_t>(
        best, (t1.tv_sec - t0.tv_sec) * 1000000000LL + (t1.tv_nsec - t0.tv_nsec));
  }
  (void)sink;
  return best;
}

}  // namespace

FastCpus::FastCpus(size_t count, std::chrono::milliseconds period) {
  CPU_ZERO(&original_);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.empty()) {
    return;
  }
  count = std::clamp<size_t>(count, 1, cpus.size());
  // The first tick is taken before the constructor returns, so every Mark
  // has a reading to fall back on.
  std::promise<void> first_tick;
  std::future<void> ready = first_tick.get_future();
  thread_ = std::thread([this, count, period, cpus = std::move(cpus), &first_tick] {
    governor_.store(static_cast<pid_t>(syscall(SYS_gettid)));
    std::vector<bool> chosen(cpus.size(), false);
    std::vector<int64_t> ns(cpus.size());
    std::unique_lock<std::mutex> lock(mu_);
    for (bool first = true; !stop_; first = false) {
      for (size_t c = 0; c < cpus.size(); ++c) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[c], &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
        ns[c] = CalibrationNs();
      }
      if (first) {
        std::vector<size_t> order(cpus.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return ns[a] < ns[b]; });
        for (size_t k = 0; k < count; ++k) {
          chosen[order[k]] = true;
        }
      }
      // Swap the slowest chosen CPU for the fastest other one while that
      // gains more than 15%.
      bool changed = first;
      for (;;) {
        size_t in = cpus.size(), out = cpus.size();
        for (size_t c = 0; c < cpus.size(); ++c) {
          if (chosen[c] && (in == cpus.size() || ns[c] > ns[in])) {
            in = c;
          } else if (!chosen[c] && (out == cpus.size() || ns[c] < ns[out])) {
            out = c;
          }
        }
        if (out == cpus.size() ||
            static_cast<double>(ns[out]) >= 0.85 * static_cast<double>(ns[in])) {
          break;
        }
        chosen[in] = false;
        chosen[out] = true;
        changed = true;
      }
      cpu_set_t set;
      CPU_ZERO(&set);
      double chosen_ns = 0.0;
      for (size_t c = 0; c < cpus.size(); ++c) {
        if (chosen[c]) {
          CPU_SET(cpus[c], &set);
          chosen_ns += static_cast<double>(ns[c]) / static_cast<double>(count);
        }
      }
      if (changed && count < cpus.size()) {
        Apply(set);
      }
      {
        const std::lock_guard<std::mutex> ticks_lock(ticks_mu_);
        ticks_.sum_ns += chosen_ns;
        ++ticks_.ticks;
        last_ns_ = chosen_ns;
      }
      if (first) {
        first_tick.set_value();
      }
      cv_.wait_for(lock, period, [this] { return stop_; });
    }
  });
  ready.wait();
}

FastCpus::Mark FastCpus::Now() const {
  const std::lock_guard<std::mutex> lock(ticks_mu_);
  return ticks_;
}

double FastCpus::ToReference(const Mark& since) const {
  const std::lock_guard<std::mutex> lock(ticks_mu_);
  const int64_t ticks = ticks_.ticks - since.ticks;
  const double mean_ns =
      ticks > 0 ? (ticks_.sum_ns - since.sum_ns) / static_cast<double>(ticks) : last_ns_;
  return mean_ns > 0.0 ? kReferenceCalibrationNs / mean_ns : 1.0;
}

FastCpus::~FastCpus() {
  if (thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Apply(original_);
  }
}

void FastCpus::Apply(const cpu_set_t& set) const {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return;
  }
  const pid_t governor = governor_.load();
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0 && tid != governor) {
      (void)sched_setaffinity(tid, sizeof(set), &set);  // a thread that just ended: ESRCH
    }
  }
  closedir(dir);
}

void Report::Gate(bool ok, const std::string& what) {
  std::printf("gate %-58s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  if (!ok) {
    failed_gates.push_back(what);
  }
}

}  // namespace e2ebench

// Host fingerprint, resident-memory sampling and the result record every
// workload fills in.
#ifndef E2EBENCH_HOST_H_
#define E2EBENCH_HOST_H_

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2ebench {

struct HostFingerprint {
  unsigned nproc = 0;                 // CPUs this process may run on
  unsigned hardware_concurrency = 0;  // std::thread's view of the machine
  std::string isa;                    // active SIMD rung of src/nn
  std::string kernel_mode;            // src/nn KernelMode
  std::string build_type;
  std::string compiler;

  std::string Json() const;
};

HostFingerprint ProbeHost();

// Current resident set size in MB (from /proc/self/statm).
double CurrentRssMb();

// Samples the resident set every few milliseconds on a background thread
// while alive; Stop() returns the highest sample (and the reading at Stop).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

// Time of the calibration loop FastCpus runs, on an undisturbed vCPU of the
// 4-vCPU dev VM (Intel Xeon, 2.0 GHz): the reference speed timings are
// scaled to.
inline constexpr double kReferenceCalibrationNs = 140000.0;

// Keeps the threads of this process on the `count` currently fastest of the
// CPUs it may run on, and measures how fast those are. Other tenants of a
// shared host slow its vCPUs: on the 4-vCPU dev VM a fixed loop ran at its
// best speed or about 1.7x slower on each vCPU, the two switching within a
// second, and the best speed itself drifted by a third within minutes (one
// open-loop median latency read 2.19 ms and 3.18 ms in runs three minutes
// apart). Every `period` a background thread times a fixed loop on each CPU,
// in its own thread CPU time so that sharing a CPU with the benchmark's
// threads does not count; it moves every other thread onto the `count`
// fastest when that is more than 15% faster than the CPU it replaces, and
// adds the chosen CPUs' mean time to a running sum. Threads started meanwhile
// inherit their creator's set; the destructor gives every thread the
// original set back.
class FastCpus {
 public:
  explicit FastCpus(size_t count,
                    std::chrono::milliseconds period = std::chrono::milliseconds(50));
  ~FastCpus();
  FastCpus(const FastCpus&) = delete;
  FastCpus& operator=(const FastCpus&) = delete;

  // The calibration ticks so far.
  struct Mark {
    double sum_ns = 0.0;
    int64_t ticks = 0;
  };
  Mark Now() const;
  // The factor that scales a time measured since `since` to the reference
  // speed: kReferenceCalibrationNs over the chosen CPUs' mean calibration
  // time in between (the latest one when no tick fell in between).
  double ToReference(const Mark& since) const;

 private:
  // Gives every thread but the governor `set`.
  void Apply(const cpu_set_t& set) const;

  cpu_set_t original_;
  std::atomic<pid_t> governor_{0};
  mutable std::mutex ticks_mu_;
  Mark ticks_;           // guarded by ticks_mu_
  double last_ns_ = 0.0;  // guarded by ticks_mu_
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// What one workload run produced: the metrics by name, the request totals
// and the correctness gates it checked.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failed_gates;
  std::vector<std::string> notes;  // human-readable lines printed before the result

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Gate(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
  bool correct() const { return failed_gates.empty(); }
};

}  // namespace e2ebench

#endif  // E2EBENCH_HOST_H_

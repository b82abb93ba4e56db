// The benchmark's named workloads. Each runs set-up (timed several times),
// its measured phase, the correctness gates, and fills a Report.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "tracer.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir = ".";  // spill slabs and span dumps go here
};

struct WorkloadInfo {
  const char* name;
  unsigned threads;  // client/producer threads plus service workers
};

const std::vector<WorkloadInfo>& Workloads();

// Runs one workload; false when the name is unknown.
bool RunWorkload(const Options& options, Tracer& tracer, Report& report);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_

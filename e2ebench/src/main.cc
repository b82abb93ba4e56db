// e2ebench: runs one named workload against the public API of src/serve,
// src/core and src/nn, checks its outputs, and prints every metric as the
// last line of stdout:
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see metrics_list.h and README.md). Exit codes: 0 result printed, 1 a
// correctness gate failed (no result), 2 bad arguments, 3 SKIP (the host has
// fewer CPUs than the workload's threads).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "host.h"
#include "metrics_list.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>]\nworkloads:",
               message);
  for (const auto& w : e2ebench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return false;
  }
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing flag value");
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0 && ParseUnsigned(value, number)) {
      options.seed = number;
    } else if (std::strcmp(flag, "--seconds") == 0 && ParseUnsigned(value, number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
    } else if (std::strcmp(flag, "--trace") == 0 && ParseUnsigned(value, number) && number <= 1) {
      options.trace = number == 1;
    } else if (std::strcmp(flag, "--scratch") == 0) {
      options.scratch_dir = value;
    } else {
      return Usage("bad flag or value");
    }
  }
  const e2ebench::WorkloadInfo* info = nullptr;
  for (const auto& w : e2ebench::Workloads()) {
    if (have_workload && options.workload == w.name) {
      info = &w;
    }
  }
  if (info == nullptr) {
    return Usage("unknown or missing --workload");
  }

  const e2ebench::HostFingerprint host = e2ebench::ProbeHost();
  std::printf("host %s\n", host.Json().c_str());
  std::printf("workload %s seed %llu seconds %.0f trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (host.nproc < info->threads) {
    std::printf("SKIP: %s runs %u threads, host has %u CPUs\n", info->name, info->threads,
                host.nproc);
    return 3;
  }

  e2ebench::Tracer tracer(options.trace);
  e2ebench::Report report;
  e2ebench::RunWorkload(options, tracer, report);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (options.trace) {
    const std::string path =
        options.scratch_dir + "/e2ebench_spans_" + options.workload + ".jsonl";
    std::printf("spans: %zu written to %s%s\n", tracer.Spans().size(), path.c_str(),
                tracer.Write(path) ? "" : " (write FAILED)");
  }
  if (!report.correct()) {
    std::printf("FAIL: %zu correctness gate(s) failed; no result published\n",
                report.failed_gates.size());
    return 1;
  }

  // Exactly the metrics of this run's kind. A per-layer metric a workload
  // does not exercise reads 0; an end-to-end metric must be measured.
  std::string metrics;
  for (const e2ebench::MetricSpec& spec : e2ebench::AllMetrics()) {
    if (spec.per_layer != options.trace) {
      continue;
    }
    const auto it = report.metrics.find(spec.name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    if (!spec.per_layer && (it == report.metrics.end() || value <= 0.0)) {
      std::printf("FAIL: end-to-end metric %s was not measured\n", spec.name);
      return 1;
    }
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buffer;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(std::max<uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

// Parallel training utilities.
//
// The src/nn threading contract (layers.h) allows DISTINCT models — disjoint
// parameter sets — to train concurrently: a model's parameters are plain
// matrices of its own, and training touches nothing else that is shared.
// This file provides the worker pool that exploits that: benchmarks and the
// eval harness train independent estimators (different seeds, configs, or
// resource subsets) across threads.
//
// Determinism: every job is self-contained (its own estimator, its own
// seeded RNG chain) and writes only to its own result slot, so an N-thread
// run is bit-identical to a 1-thread run — scheduling order cannot leak into
// the numerics.
#ifndef SRC_EVAL_PARALLEL_H_
#define SRC_EVAL_PARALLEL_H_

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/estimator.h"

namespace deeprest {

// Worker-thread count: the DEEPREST_THREADS environment variable when set to
// a positive integer, otherwise std::thread::hardware_concurrency() (>= 1).
size_t DefaultTrainThreads();

// Fixed-size pool of worker threads pulling jobs from one queue. Threads are
// joined in the destructor; Wait() blocks until every submitted job has run.
// A job's exception is captured and rethrown from Wait() (first one wins).
// The queue state lives in an annotated State struct (parallel.cc) whose
// fields are DEEPREST_GUARDED_BY its mutex — see src/core/thread_annotations.h.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> job);
  void Wait();

  size_t thread_count() const { return threads_.size(); }

 private:
  struct State;
  std::unique_ptr<State> state_;
  std::vector<std::thread> threads_;
};

// Runs fn(i) for every i in [0, n) across `threads` workers (0 = default).
// With threads == 1 (or n <= 1) everything runs on the calling thread.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn, size_t threads = 0);

// One independent training job: an estimator config plus the telemetry range
// it learns from. Pointers must outlive the TrainEstimatorsParallel call.
struct TrainJob {
  EstimatorConfig config;
  const TraceCollector* traces = nullptr;
  const MetricsStore* metrics = nullptr;
  size_t from = 0;
  size_t to = 0;
  std::vector<MetricKey> resources;
};

// Trains one estimator per job, concurrently across `threads` workers
// (0 = DefaultTrainThreads()). Results are index-aligned with `jobs` and
// bit-identical to training the jobs sequentially.
std::vector<std::unique_ptr<DeepRestEstimator>> TrainEstimatorsParallel(
    const std::vector<TrainJob>& jobs, size_t threads = 0);

}  // namespace deeprest

#endif  // SRC_EVAL_PARALLEL_H_

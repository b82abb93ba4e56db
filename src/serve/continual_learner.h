// Background model refresh for the online estimation service.
//
// A single learner thread periodically folds the ingest pipeline, and once
// enough new sealed windows have accumulated it clones the currently
// published model, fine-tunes the clone with ContinueLearning over exactly
// the new windows, and publishes the result through the ModelRegistry. The
// published model is never touched: training happens entirely on the
// private clone against stable telemetry copies, so in-flight requests keep
// reading their snapshot while the swap happens (zero-downtime refresh).
//
// Robustness (DESIGN.md "Failure model"):
//   * Validation gate — before publishing, the candidate's validation error
//     over the new windows is compared against the base model's; a candidate
//     that regressed past validation_regression_factor is rejected (the old
//     model keeps serving, `models_rejected()` counts it). Fine-tuning on a
//     degraded telemetry stretch must never replace a good model with a
//     worse one. The gate never stops refreshes: every new stretch is
//     trained and validated.
//   * Checkpointing — every successful publish is atomically checkpointed
//     (see checkpoint.h) when checkpoint_path is set, so a crashed service
//     recovers the last published version instead of retraining.
#ifndef SRC_SERVE_CONTINUAL_LEARNER_H_
#define SRC_SERVE_CONTINUAL_LEARNER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/serve/health.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"

namespace deeprest {

struct ContinualLearnerConfig {
  // Retrain once this many new sealed windows exist beyond trained_through.
  size_t min_new_windows = 24;
  // Fine-tuning epochs per refresh (ContinueLearning's reduced-rate loop).
  size_t epochs = 4;
  // How often the background thread polls the pipeline.
  std::chrono::milliseconds poll_interval{20};
  // Validation gate: reject a fine-tuned candidate whose validation error
  // over the new windows exceeds base_error * validation_regression_factor.
  // <= 0 disables validation (always publish).
  double validation_regression_factor = 1.5;
  // Atomic checkpoint written after every successful publish; empty disables.
  std::string checkpoint_path;
  // Supervision: when set, the background loop heartbeats into the registry
  // under this component name. Must outlive the learner.
  HealthRegistry* health = nullptr;
  std::string health_name = "continual-learner";
  uint64_t stall_threshold_us = 500000;
  // Chaos hook: returning true makes this refresh behave as if cloning the
  // base model failed (allocation failure) — the refresh is skipped and
  // alloc_failures() counts it.
  std::function<bool()> alloc_fail_hook;
};

// Mean absolute error normalized by mean actual magnitude (WAPE), averaged
// over the model's resources, for windows [from, to) of the feature series.
// The validation gate's fitness measure; exposed for tests.
double ValidationError(const DeepRestEstimator& model,
                       const std::vector<std::vector<float>>& features,
                       const MetricsStore& metrics, size_t from, size_t to);

// The validation gate's decision: did the candidate regress past `factor`
// times the base model's error? factor <= 0 disables the gate. The epsilon
// keeps a bit-equal candidate (base_error == candidate_error == 0) from
// failing on rounding.
bool ValidationRegressed(double base_error, double candidate_error, double factor);

class ContinualLearner {
 public:
  // `start_window`: first live window this learner is responsible for
  // (everything before it was covered by the initial Learn phase, or by the
  // checkpoint recovered at startup). The registry and pipeline must outlive
  // the learner.
  ContinualLearner(ModelRegistry& registry, IngestPipeline& pipeline, size_t start_window,
                   const ContinualLearnerConfig& config = {});
  ~ContinualLearner();

  ContinualLearner(const ContinualLearner&) = delete;
  ContinualLearner& operator=(const ContinualLearner&) = delete;

  void Start();
  void Stop();

  // One synchronous refresh attempt (also what the background thread runs):
  // folds the pipeline and retrains if enough new windows are sealed.
  // Returns the newly published version, or 0 when skipped or rejected by
  // the validation gate.
  uint64_t RefreshOnce();

  size_t trained_through() const { return trained_through_.load(std::memory_order_acquire); }
  uint64_t refreshes_published() const {
    return refreshes_.load(std::memory_order_relaxed);
  }
  // Fine-tunes rejected by the validation gate. A rejected stretch still
  // advances trained_through (retraining deterministically on the same bad
  // windows would loop forever).
  uint64_t models_rejected() const { return rejected_.load(std::memory_order_relaxed); }
  uint64_t checkpoints_written() const { return checkpoints_.load(std::memory_order_relaxed); }
  uint64_t checkpoint_failures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  // Refreshes skipped by the alloc_fail chaos hook or a failed Clone.
  uint64_t alloc_failures() const { return alloc_failures_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  ModelRegistry& registry_;
  IngestPipeline& pipeline_;
  ContinualLearnerConfig config_;
  // Serializes RefreshOnce vs. the background tick. Guards no field of its
  // own: the refresh state it protects is the fold/train/publish sequence
  // against the pipeline and registry (each internally locked), plus the
  // atomics below, whose ordering only RefreshOnce writes.
  // deeprest-lint: lock-level(before IngestPipeline::fold_mu_, ModelRegistry::mu_)
  Mutex refresh_mu_;  // deeprest-lint: allow(mutex-needs-guarded-by)
  // Serializes Start/Stop/destruction: thread_ (spawn, joinable check, join)
  // was previously unguarded, so Start racing Stop could double-spawn or
  // double-join (found while annotating). The learner thread itself never
  // takes this mutex, so Stop can join while holding it.
  Mutex lifecycle_mu_;  // deeprest-lint: lock-level(leaf)
  std::thread thread_ DEEPREST_GUARDED_BY(lifecycle_mu_);
  std::atomic<size_t> trained_through_;
  std::atomic<uint64_t> refreshes_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> alloc_failures_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<bool> stop_{false};
  HealthHandle health_;
};

}  // namespace deeprest

#endif  // SRC_SERVE_CONTINUAL_LEARNER_H_

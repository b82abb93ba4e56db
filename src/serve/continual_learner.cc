#include "src/serve/continual_learner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/serve/checkpoint.h"

namespace deeprest {

double ValidationError(const DeepRestEstimator& model,
                       const std::vector<std::vector<float>>& features,
                       const MetricsStore& metrics, size_t from, size_t to) {
  if (features.empty() || to <= from) {
    return 0.0;
  }
  const EstimateMap estimates = model.EstimateFromFeatures(features);
  double error_sum = 0.0;
  size_t resource_count = 0;
  for (const auto& [key, estimate] : estimates) {
    const std::vector<double> actual = metrics.Series(key, from, to);
    const size_t n = std::min(actual.size(), estimate.expected.size());
    if (n == 0) {
      continue;
    }
    double abs_error = 0.0;
    double abs_actual = 0.0;
    for (size_t t = 0; t < n; ++t) {
      abs_error += std::fabs(actual[t] - estimate.expected[t]);
      abs_actual += std::fabs(actual[t]);
    }
    // WAPE: scale-free like MAPE but stable when individual windows sit
    // near zero.
    error_sum += abs_error / std::max(abs_actual, 1e-9);
    ++resource_count;
  }
  return resource_count == 0 ? 0.0 : error_sum / static_cast<double>(resource_count);
}

ContinualLearner::ContinualLearner(ModelRegistry& registry, IngestPipeline& pipeline,
                                   size_t start_window, const ContinualLearnerConfig& config)
    : registry_(registry), pipeline_(pipeline), config_(config),
      trained_through_(start_window), breaker_(config.breaker) {
  if (config_.health != nullptr) {
    health_ = config_.health->Register(config_.health_name, config_.stall_threshold_us);
  }
}

ContinualLearner::~ContinualLearner() { Stop(); }

void ContinualLearner::Start() {
  MutexLock lock(lifecycle_mu_);
  if (thread_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void ContinualLearner::Stop() {
  // The stop flag flips under lifecycle_mu_ so a racing Start cannot clear
  // it between our store and the join (which would leave Stop joining a
  // thread that never exits).
  MutexLock lock(lifecycle_mu_);
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  health_.MarkStopped();
}

void ContinualLearner::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    health_.Heartbeat();
    RefreshOnce();
    std::this_thread::sleep_for(config_.poll_interval);
  }
}

uint64_t ContinualLearner::RefreshOnce() {
  MutexLock refresh_lock(refresh_mu_);
  // Live watermark: the frontier window may still be receiving events.
  const size_t frontier = pipeline_.WindowFrontier();
  const size_t watermark = frontier > 0 ? frontier - 1 : 0;
  pipeline_.Fold(watermark);

  const size_t from = trained_through_.load(std::memory_order_acquire);
  if (watermark < from + config_.min_new_windows) {
    return 0;
  }
  const ModelSnapshot base = registry_.Current();
  if (!base.valid()) {
    return 0;
  }

  // Breaker open: skip the expensive clone+train without consuming the
  // stretch — the windows stay pending for the half-open probe.
  if (!breaker_.Allow()) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  // Stable copies: training must not hold pipeline locks (it is slow) and
  // must not race with producers appending to the live stores.
  const TraceCollector traces = pipeline_.TracesCopy(from, watermark);
  const MetricsStore metrics = pipeline_.MetricsCopy();

  if (config_.alloc_fail_hook && config_.alloc_fail_hook()) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    breaker_.AbandonProbe();
    return 0;
  }
  std::unique_ptr<DeepRestEstimator> next = base.model->Clone();
  if (next == nullptr) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    breaker_.AbandonProbe();
    return 0;
  }
  next->ContinueLearning(traces, metrics, from, watermark, config_.epochs);

  // Circuit breaker: a fine-tune trained on a degraded stretch must not
  // replace a model that fits the same windows better. Either way the
  // stretch counts as consumed — retraining deterministically on the same
  // windows would loop forever.
  if (config_.validation_regression_factor > 0.0) {
    const std::vector<std::vector<float>> features = pipeline_.FeatureSlice(from, watermark);
    const double base_error = ValidationError(*base.model, features, metrics, from, watermark);
    const double next_error = ValidationError(*next, features, metrics, from, watermark);
    if (CircuitBreaker::ValidationRegressed(base_error, next_error,
                                            config_.validation_regression_factor)) {
      breaker_.RecordFailure();
      trained_through_.store(watermark, std::memory_order_release);
      return 0;
    }
  }

  // Publish exactly the model the breaker validated.
  std::shared_ptr<const DeepRestEstimator> published(std::move(next));
  const uint64_t version = registry_.Publish(published);
  trained_through_.store(watermark, std::memory_order_release);
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  breaker_.RecordSuccess();

  if (!config_.checkpoint_path.empty()) {
    CheckpointData data;
    data.version = version;
    data.trained_through = watermark;
    data.model = published;
    if (WriteCheckpoint(config_.checkpoint_path, data)) {
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
    } else {
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return version;
}

}  // namespace deeprest

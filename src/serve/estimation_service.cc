#include "src/serve/estimation_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace deeprest {

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kExpired:
      return "expired";
    case RequestStatus::kRejectedStopped:
      return "rejected-stopped";
    case RequestStatus::kHedgedDuplicate:
      return "hedged-duplicate";
  }
  return "unknown";
}

EstimationService::EstimationService(ModelRegistry& registry, IngestPipeline& pipeline,
                                     const EstimationServiceConfig& config)
    : registry_(registry), pipeline_(pipeline), config_(config) {
  config_.workers = std::max<size_t>(1, config_.workers);
  config_.max_batch = std::max<size_t>(1, config_.max_batch);
  shards_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  worker_state_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    worker_state_.push_back(std::make_unique<WorkerState>());
    if (config_.health != nullptr) {
      worker_state_.back()->health = config_.health->Register(
          "estimation-worker-" + std::to_string(i), config_.worker_stall_threshold_us);
    }
  }
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

EstimationService::~EstimationService() { Stop(); }

std::future<EstimationService::EstimateResult> EstimationService::SubmitTraffic(
    TrafficSeries traffic, uint64_t seed, std::chrono::milliseconds deadline) {
  Request request;
  request.kind = RequestKind::kTraffic;
  request.traffic = std::move(traffic);
  request.seed = seed;
  std::future<EstimateResult> future = request.estimate_promise.get_future();
  Enqueue(std::move(request), deadline);
  return future;
}

std::future<EstimationService::EstimateResult> EstimationService::SubmitFeatures(
    std::vector<std::vector<float>> features, std::chrono::milliseconds deadline) {
  Request request;
  request.kind = RequestKind::kFeatures;
  request.features = std::move(features);
  std::future<EstimateResult> future = request.estimate_promise.get_future();
  Enqueue(std::move(request), deadline);
  return future;
}

std::future<EstimationService::EstimateResult> EstimationService::SubmitStreamFeatures(
    uint64_t stream_id, std::vector<std::vector<float>> features,
    std::chrono::milliseconds deadline) {
  Request request;
  request.kind = RequestKind::kFeatures;
  request.features = std::move(features);
  request.stream_id = stream_id;
  std::future<EstimateResult> future = request.estimate_promise.get_future();
  Enqueue(std::move(request), deadline);
  return future;
}

std::future<EstimationService::EstimateResult> EstimationService::SubmitStreamTraffic(
    uint64_t stream_id, TrafficSeries traffic, uint64_t seed,
    std::chrono::milliseconds deadline) {
  Request request;
  request.kind = RequestKind::kTraffic;
  request.traffic = std::move(traffic);
  request.seed = seed;
  request.stream_id = stream_id;
  std::future<EstimateResult> future = request.estimate_promise.get_future();
  Enqueue(std::move(request), deadline);
  return future;
}

std::future<EstimationService::SanityResult> EstimationService::SubmitSanityCheck(
    size_t from, size_t to, std::chrono::milliseconds deadline) {
  Request request;
  request.kind = RequestKind::kSanity;
  request.from = from;
  request.to = to;
  std::future<SanityResult> future = request.sanity_promise.get_future();
  Enqueue(std::move(request), deadline);
  return future;
}

void EstimationService::FinishUnserved(Request& request, RequestStatus status) {
  switch (status) {
    case RequestStatus::kShed:
      stats_.RecordShed();
      break;
    case RequestStatus::kExpired:
      stats_.RecordExpired();
      break;
    case RequestStatus::kRejectedStopped:
      stats_.RecordRejected();
      break;
    case RequestStatus::kOk:
    case RequestStatus::kHedgedDuplicate:
      break;  // not unserved statuses; nothing to tally
  }
  if (request.kind == RequestKind::kSanity) {
    SanityResult result;
    result.status = status;
    request.sanity_promise.set_value(std::move(result));
  } else {
    EstimateResult result;
    result.status = status;
    request.estimate_promise.set_value(std::move(result));
  }
}

bool EstimationService::TryPush(Shard& target, Request& request, size_t& backlog) {
  MutexLock lock(target.mu);
  if (stopping_.load()) {
    return false;
  }
  target.queue.push_back(std::move(request));
  backlog = target.queue.size();
  return true;
}

void EstimationService::NotifyAfterPush(Shard& target, size_t index, size_t backlog) {
  target.cv.notify_one();
  // A backlog behind the fresh push means the shard owner is likely mid-batch:
  // flag one sibling so an idle worker steals on demand instead of waiting out
  // its poll interval.
  if (backlog > 1 && shards_.size() > 1) {
    Shard& helper = *shards_[(index + 1) % shards_.size()];
    {
      MutexLock lock(helper.mu);
      helper.steal_hint = true;
    }
    helper.cv.notify_one();
  }
}

void EstimationService::Enqueue(Request request, std::chrono::milliseconds deadline) {
  request.submitted = std::chrono::steady_clock::now();
  const std::chrono::milliseconds budget =
      deadline.count() > 0 ? deadline : config_.default_deadline;
  if (budget.count() > 0) {
    request.deadline = request.submitted + budget;
    request.has_deadline = true;
  }
  stats_.RecordSubmitted();

  const size_t shard_count = shards_.size();
  const size_t index = next_shard_.fetch_add(1, std::memory_order_relaxed) % shard_count;
  Shard& target = *shards_[index];

  if (stopping_.load()) {
    FinishUnserved(request, RequestStatus::kRejectedStopped);
    return;
  }
  // Reserve a slot under the global bound before touching any shard: the
  // compare-exchange makes max_queue an exact cap — N submitters racing into
  // different shards cannot all slip past a near-full bound. A full queue
  // sheds the newcomer, so queued work is never churned.
  if (config_.max_queue > 0) {
    size_t depth = queued_.load();
    do {
      if (depth >= config_.max_queue) {
        FinishUnserved(request, RequestStatus::kShed);
        return;
      }
    } while (!queued_.compare_exchange_weak(depth, depth + 1));
  } else {
    queued_.fetch_add(1);
  }
  size_t backlog = 0;
  if (!TryPush(target, request, backlog)) {
    // Stop() won the race for this shard; hand the slot back.
    queued_.fetch_sub(1);
    FinishUnserved(request, RequestStatus::kRejectedStopped);
    return;
  }
  NotifyAfterPush(target, index, backlog);
}

void EstimationService::Stop() {
  // stop_mu_ serializes concurrent Stop()/destruction (a second stopper used
  // to race the first on workers_, a latent double-join). Workers never take
  // stop_mu_, so joining under it cannot deadlock.
  MutexLock stop_lock(stop_mu_);
  stopping_.store(true);  // seq_cst, per the shutdown protocol in the header
  if (workers_.empty()) {
    return;  // already stopped
  }
  // Lock/unlock every shard: any submission that read the flag as false has
  // finished its push by the time we pass its shard, so the drain sees it.
  for (auto& shard : shards_) {
    { MutexLock lock(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  // Belt and braces: the workers' exit protocol drains every shard before
  // the last one leaves, but the "no request is ever left unresolved"
  // contract must hold unconditionally — sweep once more and reject
  // anything left behind.
  std::vector<Request> leftovers;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    while (!shard->queue.empty()) {
      leftovers.push_back(std::move(shard->queue.front()));
      shard->queue.pop_front();
    }
  }
  if (!leftovers.empty()) {
    queued_.fetch_sub(leftovers.size());
    for (auto& request : leftovers) {
      FinishUnserved(request, RequestStatus::kRejectedStopped);
    }
  }
}

bool EstimationService::RestartWorker(size_t index) {
  MutexLock lock(stop_mu_);
  if (stopping_.load() || index >= worker_state_.size() || index >= workers_.size()) {
    return false;
  }
  WorkerState& state = *worker_state_[index];
  if (!state.exited.load(std::memory_order_acquire)) {
    return false;  // still running (e.g. stalled): a live thread can't be restarted
  }
  if (workers_[index].joinable()) {
    workers_[index].join();
  }
  state.exited.store(false, std::memory_order_release);
  // Fresh lease before the thread is scheduled, so the watchdog's next scan
  // sees the revival instead of instantly re-flagging a stale stamp.
  state.health.Heartbeat();
  workers_[index] = std::thread([this, index] { WorkerLoop(index); });
  stats_.RecordWorkerRestart();
  return true;
}

bool EstimationService::WorkerExited(size_t index) const {
  return index < worker_state_.size() &&
         worker_state_[index]->exited.load(std::memory_order_acquire);
}

void EstimationService::WorkerLoop(size_t self) {
  Shard& shard = *shards_[self];
  WorkerState& state = *worker_state_[self];
  const bool can_steal = shards_.size() > 1;
  constexpr std::chrono::milliseconds kMinSweepWait{1};
  constexpr std::chrono::milliseconds kMaxSweepWait{64};
  std::chrono::milliseconds sweep_wait = kMinSweepWait;
  for (;;) {
    // Liveness stamp at the top of every sweep (idle waits below are capped,
    // so the stamp refreshes at least every kMaxSweepWait); staleness past
    // the registered threshold is what the watchdog keys recovery off.
    state.health.Heartbeat();
    if (config_.worker_fault_hook) {
      const WorkerFault fault = config_.worker_fault_hook(self);
      if (fault == WorkerFault::kCrash) {
        // Simulated death at a sweep boundary: no batch is in hand, so no
        // promise is stranded. The thread exits WITHOUT MarkStopped — the
        // watchdog must see the corpse go stale. RestartWorker revives it.
        stats_.RecordWorkerCrash();
        state.exited.store(true, std::memory_order_release);
        return;
      }
      if (fault == WorkerFault::kStall) {
        stats_.RecordWorkerStall();  // the hook blocked inside the call
      }
    }
    // Read the stop flag BEFORE sweeping. Enqueue re-checks the flag under
    // the shard lock it pushes into, so once the flag is set no push can
    // land behind a sweep that starts after this load — coming up empty
    // then means empty for good, and exiting cannot strand a request.
    const bool stop_observed = stopping_.load();
    std::vector<Request> batch;
    bool hinted = false;
    {
      // The wait conditions are written as explicit loops (not wait(lock,
      // pred) lambdas) so the thread-safety analysis can see that every read
      // of shard.queue / shard.steal_hint happens with shard.mu held.
      MutexLock lock(shard.mu);
      if (can_steal) {
        // Timed wait so an idle worker still sweeps its siblings for
        // stealable work; steal hints wake it on demand and the exponential
        // backoff below keeps the fallback from becoming a busy-poll.
        const auto sweep_deadline = std::chrono::steady_clock::now() + sweep_wait;
        while (!stopping_.load() && shard.queue.empty() && !shard.steal_hint) {
          if (lock.WaitUntil(shard.cv, sweep_deadline)) {
            break;  // timed out: run the steal sweep anyway
          }
        }
      } else {
        // Timed even without siblings to steal from: heartbeats must keep
        // flowing while idle, or an empty-queue service looks dead to the
        // watchdog.
        const auto idle_deadline = std::chrono::steady_clock::now() + kMaxSweepWait;
        while (!stopping_.load() && shard.queue.empty() && !shard.steal_hint) {
          if (lock.WaitUntil(shard.cv, idle_deadline)) {
            break;  // timed out: loop around for a fresh heartbeat
          }
        }
      }
      hinted = shard.steal_hint;
      shard.steal_hint = false;
      if (!shard.queue.empty()) {
        // Serve on arrival: whatever queued while this worker was busy or
        // asleep forms the batch, and nothing waits for company.
        const size_t take = std::min(shard.queue.size(), config_.max_batch);
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(shard.queue.front()));
          shard.queue.pop_front();
        }
        queued_.fetch_sub(take);
      }
    }
    if (batch.empty() && can_steal) {
      StealBatch(self, batch);
    }
    if (!batch.empty()) {
      sweep_wait = kMinSweepWait;
      ServeBatch(std::move(batch));
      continue;
    }
    if (stop_observed) {
      // The flag was set before this sweep began and the sweep (own shard
      // plus every sibling, each under its lock) found nothing: nothing can
      // arrive anymore, so it is safe to exit. If the flag flipped only
      // mid-sweep, stop_observed is still false and the next iteration runs
      // one more full sweep before exiting.
      state.health.MarkStopped();  // clean exit, not watchdog food
      state.exited.store(true, std::memory_order_release);
      return;
    }
    if (can_steal && !hinted) {
      // Idle and nothing stealable anywhere: back off the sweep cadence so
      // an idle N-worker service doesn't spend ~N*(N-1) cross-shard lock
      // acquisitions per millisecond polling empty queues.
      sweep_wait = std::min(sweep_wait * 2, kMaxSweepWait);
    }
  }
}

bool EstimationService::StealBatch(size_t self, std::vector<Request>& batch) {
  const size_t shard_count = shards_.size();
  for (size_t off = 1; off < shard_count; ++off) {
    Shard& victim = *shards_[(self + off) % shard_count];
    MutexLock lock(victim.mu);
    if (victim.queue.empty()) {
      continue;
    }
    const size_t take = std::min(victim.queue.size(), config_.max_batch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(victim.queue.front()));
      victim.queue.pop_front();
    }
    queued_.fetch_sub(take);
    return true;
  }
  return false;
}

void EstimationService::ServeBatch(std::vector<Request> batch) {
  // Deadline gate before any model work: a request that has already expired
  // must not spend a forward pass. Expired requests resolve here; the batch
  // shrinks to the still-live ones.
  const auto now = std::chrono::steady_clock::now();
  size_t live = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    if (request.has_deadline && now > request.deadline) {
      FinishUnserved(request, RequestStatus::kExpired);
      continue;
    }
    if (live != i) {
      batch[live] = std::move(request);
    }
    ++live;
  }
  batch.resize(live);
  if (batch.empty()) {
    return;
  }

  stats_.RecordBatch(batch.size());
  const ModelSnapshot snapshot = registry_.Current();
  const auto finish = [&](Request& request, EstimateMap estimates) {
    const double latency_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  request.submitted)
            .count();
    if (request.kind == RequestKind::kSanity) {
      SanityResult result;
      result.model_version = snapshot.version;
      result.from = request.from;
      result.to = request.to;  // clamped at series-build time
      if (snapshot.valid() && result.to > result.from) {
        const MetricsStore actuals = pipeline_.MetricsCopy();
        result.quality = pipeline_.QualitySlice(result.from, result.to);
        result.min_quality = MinQuality(result.quality);
        SanityChecker checker(config_.sanity);
        result.events = checker.Detect(estimates, actuals, result.from, result.to,
                                       QualityScores(result.quality));
      }
      stats_.RecordServed(/*is_sanity=*/true, latency_ms);
      request.sanity_promise.set_value(std::move(result));
    } else {
      EstimateResult result;
      result.model_version = snapshot.version;
      result.estimates = std::move(estimates);
      stats_.RecordServed(/*is_sanity=*/false, latency_ms);
      request.estimate_promise.set_value(std::move(result));
    }
  };

  if (!snapshot.valid()) {
    for (auto& request : batch) {
      finish(request, {});
    }
    return;
  }

  // Materialize one feature series per request, all against the same
  // snapshot's frozen feature space.
  std::vector<std::vector<std::vector<float>>> series(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    switch (request.kind) {
      case RequestKind::kFeatures:
        series[i] = std::move(request.features);
        break;
      case RequestKind::kTraffic: {
        Rng rng(request.seed);
        series[i] = snapshot.model->synthesizer().SynthesizeFeatures(request.traffic, rng);
        break;
      }
      case RequestKind::kSanity: {
        // Seal the requested range if producers have already delivered it;
        // otherwise check the available prefix.
        if (pipeline_.featured_windows() < request.to) {
          pipeline_.Fold(std::min(request.to, pipeline_.WindowFrontier()));
        }
        request.to = std::min(request.to, pipeline_.featured_windows());
        request.from = std::min(request.from, request.to);
        series[i] = pipeline_.FeatureSlice(request.from, request.to);
        break;
      }
    }
  }

  bool any_stream = false;
  if (config_.stream_states != nullptr) {
    for (const Request& request : batch) {
      if (request.stream_id != 0) {
        any_stream = true;
        break;
      }
    }
  }

  // One coalesced forward pass: the batch's queries are the rows of one
  // batch-row-major pass from the cached warm-start state (see
  // EstimateFromFeaturesBatch). A batch carrying stream requests takes the
  // resume path instead: same math, but cursor-seeded and round-split for
  // duplicate streams.
  std::vector<EstimateMap> estimates;
  if (any_stream) {
    estimates = ServeStreamRounds(batch, series, snapshot);
  } else {
    std::vector<const std::vector<std::vector<float>>*> pointers;
    pointers.reserve(series.size());
    for (const auto& s : series) {
      pointers.push_back(&s);
    }
    estimates = snapshot.model->EstimateFromFeaturesBatch(pointers);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    finish(batch[i], std::move(estimates[i]));
  }
}

std::vector<EstimateMap> EstimationService::ServeStreamRounds(
    std::vector<Request>& batch, const std::vector<std::vector<std::vector<float>>>& series,
    const ModelSnapshot& snapshot) {
  StateCache& cache = *config_.stream_states;

  // Duplicate-stream requests in one batch cannot share a forward pass —
  // the second must resume exactly where the first left off — so request i
  // runs in round k = its occurrence index among same-stream requests, in
  // submission order. Stateless passengers ride in round 0. Each round is
  // one coalesced batch-major resume pass.
  std::vector<size_t> round_of(batch.size(), 0);
  size_t rounds = 1;
  {
    std::unordered_map<uint64_t, size_t> occurrence;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].stream_id == 0) {
        continue;
      }
      round_of[i] = occurrence[batch[i].stream_id]++;
      rounds = std::max(rounds, round_of[i] + 1);
    }
  }

  // Lease every distinct stream in ascending key order — the documented
  // deadlock-free order for the cache's blocking exclusive lease (another
  // worker leasing an overlapping set cannot form a cycle).
  std::vector<uint64_t> keys;
  keys.reserve(batch.size());
  for (const Request& request : batch) {
    if (request.stream_id != 0) {
      keys.push_back(request.stream_id);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<StateCache::Lease> leases;
  leases.reserve(keys.size());
  std::vector<DeepRestEstimator::StreamCursor> cursors(keys.size());
  std::unordered_map<uint64_t, size_t> cursor_of;
  cursor_of.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    leases.push_back(cache.AcquireOrCreate(keys[k]));
    StreamState& state = leases.back().state();
    // A hidden state produced under an older model's weights is meaningless
    // under this snapshot: warm-restart the stream (counted) rather than mix
    // versions within one series.
    if (state.model_version != 0 && state.model_version != snapshot.version) {
      state.hidden.clear();
      state.steps = 0;
      stats_.RecordStateReset();
    }
    cursors[k].hidden = state.hidden;
    cursors[k].steps = state.steps;
    cursor_of[keys[k]] = k;
  }

  std::vector<EstimateMap> estimates(batch.size());
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<const std::vector<std::vector<float>>*> round_pointers;
    std::vector<DeepRestEstimator::StreamCursor*> round_cursors;
    std::vector<size_t> round_index;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (round_of[i] != r) {
        continue;
      }
      round_pointers.push_back(&series[i]);
      round_cursors.push_back(batch[i].stream_id == 0
                                  ? nullptr
                                  : &cursors[cursor_of[batch[i].stream_id]]);
      round_index.push_back(i);
    }
    if (round_pointers.empty()) {
      continue;
    }
    std::vector<EstimateMap> round_estimates =
        snapshot.model->EstimateFromFeaturesBatchResume(round_pointers, round_cursors);
    for (size_t j = 0; j < round_index.size(); ++j) {
      estimates[round_index[j]] = std::move(round_estimates[j]);
    }
  }

  // Write the advanced states back under the leases, then let the leases
  // release (re-accounting the grown entries against the budget — which may
  // trigger eviction of OTHER, unpinned streams).
  for (size_t k = 0; k < keys.size(); ++k) {
    StreamState& state = leases[k].state();
    state.hidden = std::move(cursors[k].hidden);
    state.steps = cursors[k].steps;
    state.model_version = snapshot.version;
  }
  return estimates;
}

ServiceCounters EstimationService::Counters() const {
  ServiceCounters counters = stats_.Snapshot();
  counters.queue_depth = queued_.load();
  counters.ingest_lag_windows = pipeline_.IngestLag();
  counters.traces_rejected = pipeline_.rejected_traces();
  counters.traces_deduplicated = pipeline_.duplicate_traces();
  counters.imputed_windows = pipeline_.imputed_windows();
  counters.imputed_metrics = pipeline_.imputed_metrics();
  counters.models_published = registry_.publish_count();
  counters.model_version = registry_.version();
  if (config_.stream_states != nullptr) {
    counters.state_cache_attached = true;
    const StateCacheCounters cache_counters = config_.stream_states->Counters();
    counters.state_hot_hits = cache_counters.hot_hits;
    counters.state_cold_hits = cache_counters.cold_hits;
    counters.state_misses = cache_counters.misses;
    counters.state_evictions = cache_counters.evictions;
    counters.state_spills = cache_counters.spills;
    counters.state_drops = cache_counters.drops;
    counters.state_resident_bytes =
        cache_counters.hot_resident_bytes + cache_counters.cold_resident_bytes;
  }
  return counters;
}

}  // namespace deeprest

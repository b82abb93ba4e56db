// Concurrent, micro-batching front door of the online estimator.
//
// Clients submit estimation and sanity-check requests and get futures back.
// Each worker thread owns a private queue shard: submissions round-robin
// across shards with an atomic counter, so batch assembly never serializes
// every worker on one mutex, and a worker whose shard runs dry steals a
// batch from a sibling so no queued request is ever stranded behind a busy
// or unlucky worker. A worker serves requests on arrival: when it wakes it
// takes up to max_batch of the requests its shard holds and answers them in
// one forward pass via DeepRestEstimator::EstimateFromFeaturesBatch
// (EstimateFromFeaturesBatchResume when the batch carries stream requests),
// without waiting for more to arrive. At light load a batch is one request;
// under load, the requests that queued behind a running batch form the next
// one. The batch's queries are the rows of one batch-row-major pass over
// the packed weights, starting from the cached warm-start state.
//
// Shutdown safety: Stop() flips the (seq_cst) stopping flag, then
// locks/unlocks every shard so any submission that saw the flag unset has
// finished its push, then wakes and joins the workers. A worker reads the
// flag BEFORE each sweep and exits only when a sweep that *started* with
// the flag already set — own shard plus a full steal pass, each under its
// shard lock — comes up empty. Enqueue re-checks the flag under the shard
// lock it pushes into, so no push can land behind such a sweep: a racing
// submission either completed its push before the sweep reached that shard
// (and the sweep took it) or observes the flag and rejects. After joining,
// Stop() sweeps every shard once more and resolves anything left with
// kRejectedStopped, so no request is ever left unresolved, unconditionally.
//
// Snapshot discipline: a batch grabs ONE ModelSnapshot from the registry and
// serves every request in the batch against it, so a request never observes
// weights from two model versions even while the ContinualLearner publishes
// mid-flight. Each result carries the version that produced it.
//
// Overload protection (DESIGN.md "Failure model"): the request queue is
// bounded (max_queue) and sheds under pressure instead of growing without
// limit — a request that finds the queue full resolves immediately with
// status kShed, so in-flight work is never churned. Requests may carry a
// deadline; a request whose deadline passed before a worker reached it
// resolves with kExpired without paying for a forward pass. Every result
// carries a RequestStatus, and a request submitted after Stop() resolves with
// kRejectedStopped rather than hanging or crashing.
//
// Self-healing (DESIGN.md "Failure model", supervision tree): with a
// HealthRegistry wired in, every worker heartbeats at the top of each sweep
// so a watchdog (supervisor.h) can spot a stalled or dead worker by
// staleness alone. A worker that "crashes" (its thread exits, e.g. via the
// chaos hook) is revived by RestartWorker on the same shard. The steal
// sweep is what routes around a slow or wedged worker: the requests queued
// in its shard are served by an idle sibling, without waiting for the
// watchdog. It cannot rescue a request already inside the wedged worker's
// batch. Each submission is stamped once and resolved exactly once.
#ifndef SRC_SERVE_ESTIMATION_SERVICE_H_
#define SRC_SERVE_ESTIMATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/sanity.h"
#include "src/core/thread_annotations.h"
#include "src/serve/data_quality.h"
#include "src/serve/health.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/serve/state_cache.h"
#include "src/serve/stats.h"
#include "src/workload/traffic.h"

namespace deeprest {

// Terminal state of one request. Anything other than kOk means the request
// did not run a forward pass and its payload fields are empty.
enum class RequestStatus {
  kOk = 0,
  kShed,             // bounded queue was full when it arrived
  kExpired,          // deadline passed before a worker served it
  kRejectedStopped,  // submitted after Stop()
  kHedgedDuplicate,  // produced by no path; kept while e2ebench names it
};

// Number of RequestStatus enumerators. Keep in lockstep with the enum: the
// exhaustiveness test asserts RequestStatusName knows exactly this many
// distinct statuses and returns "unknown" immediately past the count.
inline constexpr size_t kRequestStatusCount = 5;

const char* RequestStatusName(RequestStatus status);

// Chaos hook outcome, consulted by each worker at the top of every sweep
// (estimation_service is fault-injection-agnostic: the sim layer's chaos
// schedule is bridged in through the hook at bench/CLI level).
enum class WorkerFault {
  kNone = 0,
  kStall,  // the hook blocked inside the call; counted, sweep continues
  kCrash,  // the worker thread exits as if it died; RestartWorker revives it
};

struct EstimationServiceConfig {
  size_t workers = 4;
  // Most requests one forward pass serves. A worker takes up to this many
  // of the requests queued when it wakes; it never waits for more to
  // arrive. 1 disables micro-batching.
  size_t max_batch = 8;
  // Queue bound; 0 = unbounded (the pre-overload-protection behavior). An
  // exact cap: submission reserves a slot with a compare-exchange on the
  // global depth counter before touching any shard, so concurrent
  // submitters to different shards cannot collectively overshoot it. A
  // request that finds every slot taken resolves kShed at once.
  size_t max_queue = 0;
  // Deadline applied to requests submitted without one; 0 = no deadline.
  std::chrono::milliseconds default_deadline{0};
  SanityConfig sanity;
  // When set, every worker registers as "estimation-worker-<i>" and
  // heartbeats each sweep, so the watchdog can detect stalls and crashes.
  // Must outlive the service.
  HealthRegistry* health = nullptr;
  // Staleness past which a worker counts as stuck (registry registration).
  uint64_t worker_stall_threshold_us = 200000;
  // Chaos hook: called by worker `i` at the top of each sweep. May block
  // (that IS a stall); kCrash makes the worker thread exit.
  std::function<WorkerFault(size_t)> worker_fault_hook;
  // Soft-memory tiered per-stream warm-start state (state_cache.h). When
  // set, requests submitted with a nonzero stream id resume that stream's
  // cached hidden state instead of warm-starting from scratch and write the
  // advanced state back after the pass. Must outlive the service.
  StateCache* stream_states = nullptr;
};

class EstimationService {
 public:
  struct EstimateResult {
    RequestStatus status = RequestStatus::kOk;
    uint64_t model_version = 0;  // 0 = no model was published yet
    EstimateMap estimates;
  };
  struct SanityResult {
    RequestStatus status = RequestStatus::kOk;
    uint64_t model_version = 0;
    size_t from = 0;
    size_t to = 0;  // actually checked range (clamped to featured windows)
    std::vector<AnomalyEvent> events;
    // Telemetry quality of the checked windows, index-aligned with
    // [from, to). min_quality is the worst window; anything below 1.0 means
    // the detector ran with widened tolerances on the degraded windows.
    std::vector<DataQuality> quality;
    double min_quality = 1.0;
  };

  // The registry and pipeline must outlive the service.
  EstimationService(ModelRegistry& registry, IngestPipeline& pipeline,
                    const EstimationServiceConfig& config = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // --- Client side (any thread) ---
  // A nonzero `deadline` overrides config.default_deadline for this request;
  // it is a budget measured from submission.

  // Mode 1 (resource allocation): hypothetical traffic, turned into features
  // by the serving snapshot's synthesizer from its compiled shape counts
  // (bit-identical to synthesizing traces and extracting them).
  std::future<EstimateResult> SubmitTraffic(TrafficSeries traffic, uint64_t seed,
                                            std::chrono::milliseconds deadline = {});

  // Direct estimation from a prebuilt feature series.
  std::future<EstimateResult> SubmitFeatures(std::vector<std::vector<float>> features,
                                             std::chrono::milliseconds deadline = {});

  // Stream variants: a nonzero `stream_id` resumes that stream's cached
  // hidden state (config.stream_states) and advances it by this request's
  // windows, so a long series can be served as many short requests with
  // bit-identical results to one unbroken submission. Stateless behavior
  // when stream_id is 0 or no cache is wired.
  std::future<EstimateResult> SubmitStreamFeatures(
      uint64_t stream_id, std::vector<std::vector<float>> features,
      std::chrono::milliseconds deadline = {});
  std::future<EstimateResult> SubmitStreamTraffic(uint64_t stream_id, TrafficSeries traffic,
                                                  uint64_t seed,
                                                  std::chrono::milliseconds deadline = {});

  // Mode 2 (sanity check) over ingested windows [from, to): expected
  // consumption from the pipeline's feature series vs the ingested actuals,
  // with the windows' DataQuality widening detector tolerances.
  std::future<SanityResult> SubmitSanityCheck(size_t from, size_t to,
                                              std::chrono::milliseconds deadline = {});

  // Drains the queue, then stops and joins the workers. Idempotent; called
  // by the destructor. Submitting after (or racing with) Stop is safe: the
  // request resolves with status kRejectedStopped.
  void Stop();

  // --- Supervision side (watchdog / operator) ---

  // Revives worker `index` after its thread exited (a kCrash fault). Joins
  // the dead thread and respawns it on the same shard. Returns false when
  // the worker is still running (a stall cannot be restarted — the incident
  // closes when its heartbeats resume), the index is bad, or the service is
  // stopping. Safe to call from the supervisor's scan thread.
  bool RestartWorker(size_t index);

  // True once worker `index`'s thread has exited (crash fault or Stop).
  bool WorkerExited(size_t index) const;

  // Live counters (queue depth, ingest lag, pipeline admission-control
  // tallies, and registry state filled in).
  ServiceCounters Counters() const;

 private:
  enum class RequestKind { kFeatures, kTraffic, kSanity };

  struct Request {
    RequestKind kind = RequestKind::kFeatures;
    std::vector<std::vector<float>> features;  // kFeatures
    TrafficSeries traffic;                     // kTraffic
    uint64_t seed = 0;                         // kTraffic
    uint64_t stream_id = 0;                    // nonzero: stream; ignored without a cache
    size_t from = 0;                           // kSanity
    size_t to = 0;                             // kSanity
    std::promise<EstimateResult> estimate_promise;
    std::promise<SanityResult> sanity_promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  // Per-worker supervision state. Fixed after construction (unique_ptr
  // indirection), so workers and the supervisor thread can reach it without
  // synchronization beyond the atomics themselves.
  struct WorkerState {
    std::atomic<bool> exited{false};
    HealthHandle health;
  };

  // One worker's private slice of the request queue. Submissions round-robin
  // across shards; only batch assembly for the same shard ever contends on
  // its mutex. Lock hierarchy: at most ONE Shard::mu is ever held at a time
  // (enqueue, steal sweep and drain all go shard-by-shard);
  // the global depth counter queued_ is atomic and never sits under a lock.
  struct Shard {
    Mutex mu;  // deeprest-lint: lock-level(leaf)
    std::condition_variable cv;
    std::deque<Request> queue DEEPREST_GUARDED_BY(mu);
    // Set by Enqueue (guarded by mu) when some shard has a backlog its owner
    // is not keeping up with; wakes this worker to run a steal sweep on
    // demand instead of waiting out its idle poll interval.
    bool steal_hint DEEPREST_GUARDED_BY(mu) = false;
  };

  // Stamps submission time and deadline; records the submission. Then
  // queues into a round-robin shard, or resolves the request at the door
  // (shed / rejected).
  void Enqueue(Request request, std::chrono::milliseconds deadline);
  // Pushes under the shard lock unless stopping_ is set; reports the shard's
  // post-push depth. Returns false (request untouched) when stopping.
  bool TryPush(Shard& target, Request& request, size_t& backlog)
      DEEPREST_EXCLUDES(target.mu);
  // Wakes the shard owner and, when the push left a backlog, flags one
  // sibling to steal.
  void NotifyAfterPush(Shard& target, size_t index, size_t backlog);
  // Resolves a request that will never be served and records the matching
  // counter.
  void FinishUnserved(Request& request, RequestStatus status);
  void WorkerLoop(size_t self);
  // Pops up to max_batch requests from the first non-empty sibling shard.
  // Holds at most one shard lock at a time. Returns false if every sibling
  // was empty.
  bool StealBatch(size_t self, std::vector<Request>& batch);
  void ServeBatch(std::vector<Request> batch);
  // Streamful tail of ServeBatch: splits duplicate-stream requests into
  // sequential rounds, leases every distinct stream in ascending key order,
  // runs each round as one cursor-seeded batch-major resume pass, and writes
  // the advanced states back before the leases release.
  std::vector<EstimateMap> ServeStreamRounds(
      std::vector<Request>& batch,
      const std::vector<std::vector<std::vector<float>>>& series,
      const ModelSnapshot& snapshot);

  ModelRegistry& registry_;
  IngestPipeline& pipeline_;
  EstimationServiceConfig config_;

  // Shard structs never move after construction (unique_ptr indirection), so
  // workers and submitters can hold references without synchronization.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Round-robin submission cursor.
  std::atomic<size_t> next_shard_{0};
  // Total queued requests across all shards; backs Counters().queue_depth
  // and enforces max_queue exactly: submitters reserve a slot here (CAS
  // against the bound) before pushing into any shard, and workers release
  // slots as they pop under the shard lock. Never exceeds max_queue when the
  // bound is on.
  std::atomic<size_t> queued_{0};
  // seq_cst on purpose: the shutdown-safety argument in the header comment
  // leans on a single total order of the flag's loads and stores.
  std::atomic<bool> stopping_{false};

  ServiceStats stats_;
  // Serializes Stop() against concurrent Stop()/destruction: joining and
  // clearing workers_ from two threads at once was a latent double-join
  // (found while annotating — the thread-safety analysis has no lock to
  // attribute workers_ to otherwise). Workers never take this mutex, so
  // Stop() can join them while holding it. RestartWorker joins/respawns a
  // single worker under the same mutex, so it serializes against Stop too.
  Mutex stop_mu_;  // deeprest-lint: lock-level(root)
  std::vector<std::thread> workers_ DEEPREST_GUARDED_BY(stop_mu_);

  // Per-worker exit flags + health handles; the structs never move after
  // construction (see WorkerState).
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
};

}  // namespace deeprest

#endif  // SRC_SERVE_ESTIMATION_SERVICE_H_

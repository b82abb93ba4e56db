// Serving-layer throughput and latency (extension; paper section 6 discusses
// estimation cost at production scale). Measures the online EstimationService
// over a worker-count x micro-batch grid. Every batch runs as one
// batch-row-major forward pass over the packed weights from the cached warm
// state, so batch=16 must beat batch=1 at every worker count. A final run
// hot-swaps a fine-tuned model mid-flight and verifies no request observed
// torn weights: every result must be bit-identical to exactly one published
// version's single-threaded reference.
//
// A soft-memory leg serves 10^6 distinct stream contexts through the tiered
// StateCache (a hot tier backed by a disk slab) inside a fixed RAM budget
// that could not hold them hot, under Zipf-skewed popularity, checks every
// value exactly, and compares tail latency against an unbounded cache; a
// streamful end-to-end leg proves budgeted serving stays bit-identical to
// direct cursor resume.
//
// Flags: --smoke (tiny config, correctness-only exit gates, for ctest)
//        --out <path> (JSON path; default BENCH_serving.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/serve/state_cache.h"

using namespace deeprest;  // NOLINT(build/namespaces)

namespace {

bool SameEstimates(const EstimateMap& a, const EstimateMap& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, estimate] : a) {
    const auto it = b.find(key);
    if (it == b.end() || estimate.expected != it->second.expected ||
        estimate.lower != it->second.lower || estimate.upper != it->second.upper) {
      return false;
    }
  }
  return true;
}

struct CellResult {
  double requests_per_sec = 0.0;
  ServiceCounters counters;
};

// Injected overload: a burst far beyond serving capacity against a bounded
// queue with per-request deadlines. The service must shed or expire the
// excess instead of growing without limit, and every accepted result must be
// bit-identical to the single-threaded reference.
struct OverloadResult {
  size_t ok = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t torn = 0;
  double shed_rate = 0.0;
  ServiceCounters counters;
};

OverloadResult RunOverload(std::shared_ptr<const DeepRestEstimator> model,
                           const std::vector<std::vector<float>>& features,
                           size_t burst) {
  const EstimateMap reference = model->EstimateFromFeatures(features);
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));
  EstimationServiceConfig config;
  config.workers = 1;  // capacity pinned far below the burst
  config.max_batch = 4;
  config.max_queue = 8;
  EstimationService service(registry, pipeline, config);

  std::vector<std::future<EstimationService::EstimateResult>> futures;
  futures.reserve(burst);
  for (size_t i = 0; i < burst; ++i) {
    // Every fourth request carries a tight deadline, so both shedding (queue
    // full) and expiry (deadline passed while queued) are exercised.
    const auto deadline =
        i % 4 == 3 ? std::chrono::milliseconds(1) : std::chrono::milliseconds(0);
    futures.push_back(service.SubmitFeatures(features, deadline));
  }
  OverloadResult result;
  for (auto& future : futures) {
    const auto r = future.get();
    switch (r.status) {
      case RequestStatus::kOk:
        ++result.ok;
        result.torn += SameEstimates(r.estimates, reference) ? 0 : 1;
        break;
      case RequestStatus::kShed:
        ++result.shed;
        break;
      case RequestStatus::kExpired:
        ++result.expired;
        break;
      default:
        ++result.torn;  // kRejectedStopped must not happen here
        break;
    }
  }
  result.shed_rate =
      static_cast<double>(result.shed + result.expired) / static_cast<double>(burst);
  result.counters = service.Counters();
  return result;
}

// --- Soft-memory tiered state leg -----------------------------------------

// Deterministic per-context payload: what the consumer rebuilds on a miss and
// what every access verifies against, exactly.
std::vector<float> ContextPayload(uint64_t key, size_t floats) {
  std::vector<float> payload(floats);
  uint64_t x = key * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < floats; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    payload[i] =
        static_cast<float>(static_cast<double>(x >> 11) / 9007199254740992.0);
  }
  return payload;
}

struct TierResult {
  size_t contexts = 0;
  size_t accesses = 0;
  double hit_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t resident_bytes = 0;
  size_t wrong_values = 0;
  StateCacheCounters counters;
};

// One access as a serving consumer makes it: lease the context, rebuild a
// fresh (never seen or dropped) state from its payload, and otherwise check
// the cached state against the payload bit for bit. False on a wrong value.
bool ServeContext(StateCache& cache, uint64_t key, size_t floats) {
  StateCache::Lease lease = cache.AcquireOrCreate(key);
  const std::vector<float> expected = ContextPayload(key, floats);
  if (lease.state().hidden.empty()) {
    lease.state().hidden = expected;
    lease.state().steps = key;
    return true;
  }
  return lease.state().hidden == expected && lease.state().steps == key;
}

// Serves every distinct context once (first touch installs), then runs a
// Zipf(s=1)-skewed re-access phase via the inverse CDF k = floor(exp(u ln N)),
// timing each access and verifying its payload.
TierResult RunContextLeg(StateCache& cache, size_t contexts, size_t accesses,
                         size_t floats, uint64_t seed) {
  for (uint64_t key = 0; key < contexts; ++key) {
    ServeContext(cache, key, floats);
  }
  const StateCacheCounters before = cache.Counters();
  Rng rng(seed);
  const double ln_n = std::log(static_cast<double>(contexts));
  std::vector<double> lat_us;
  lat_us.reserve(accesses);
  TierResult r;
  r.contexts = contexts;
  r.accesses = accesses;
  for (size_t i = 0; i < accesses; ++i) {
    uint64_t key = static_cast<uint64_t>(std::exp(rng.NextDouble() * ln_n));
    if (key >= contexts) {
      key = contexts - 1;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = ServeContext(cache, key, floats);
    const auto t1 = std::chrono::steady_clock::now();
    r.wrong_values += ok ? 0 : 1;
    lat_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const StateCacheCounters after = cache.Counters();
  r.hit_rate = static_cast<double>((after.hot_hits - before.hot_hits) +
                                   (after.cold_hits - before.cold_hits)) /
               static_cast<double>(accesses);
  std::sort(lat_us.begin(), lat_us.end());
  r.p50_us = lat_us[lat_us.size() / 2];
  r.p99_us = lat_us[std::min(lat_us.size() - 1, (lat_us.size() * 99) / 100)];
  r.resident_bytes = after.hot_resident_bytes + after.cold_resident_bytes;
  r.counters = after;
  return r;
}

// A hot tier below one entry forces every release through the slab; every
// state must come back bit-exact.
bool DiskRoundTripExact(const std::string& slab_path) {
  StateCacheConfig config;
  config.hot_bytes = 64;
  config.slab_path = slab_path;
  config.slab_slot_payload_bytes = 1 << 12;
  config.slab_slots = 256;
  StateCache cache(config);
  if (!cache.disk_ok()) {
    return false;
  }
  constexpr size_t kKeys = 64;
  constexpr size_t kFloats = 48;
  for (uint64_t key = 0; key < kKeys; ++key) {
    StateCache::Lease lease = cache.AcquireOrCreate(key);
    lease.state().hidden = ContextPayload(key, kFloats);
    lease.state().steps = key;
  }
  bool exact = cache.Counters().spills >= kKeys;
  for (uint64_t key = 0; key < kKeys; ++key) {
    StateCache::Lease lease = cache.AcquireOrCreate(key);
    exact = exact && lease.state().steps == key &&
            lease.state().hidden == ContextPayload(key, kFloats);
  }
  return exact && cache.Counters().cold_hits == kKeys;
}

// --- Streamful end-to-end leg ----------------------------------------------

std::vector<std::vector<std::vector<float>>> SplitSeries(
    const std::vector<std::vector<float>>& series, size_t chunks) {
  std::vector<std::vector<std::vector<float>>> out(chunks);
  const size_t per = (series.size() + chunks - 1) / chunks;
  for (size_t i = 0; i < series.size(); ++i) {
    out[std::min(i / per, chunks - 1)].push_back(series[i]);
  }
  return out;
}

struct StreamLegResult {
  size_t streams = 0;
  size_t chunks = 0;
  size_t requests = 0;
  size_t mismatches = 0;
  double req_per_sec = 0.0;
  ServiceCounters counters;
};

// Many concurrent streams consume the same chunked series through a budgeted
// cache whose hot tier cannot hold them all, so states round-trip through the
// disk slab between requests. Every chunk result must be bit-identical to the
// direct EstimateFromFeaturesBatchResume cursor walk.
StreamLegResult RunStreamLeg(std::shared_ptr<const DeepRestEstimator> model,
                             const std::vector<std::vector<float>>& features,
                             StateCache& cache, size_t streams) {
  const auto chunks = SplitSeries(features, 4);
  DeepRestEstimator::StreamCursor cursor;
  std::vector<EstimateMap> expected;
  expected.reserve(chunks.size());
  for (const auto& chunk : chunks) {
    expected.push_back(
        model->EstimateFromFeaturesBatchResume({&chunk}, {&cursor})[0]);
  }

  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));
  EstimationServiceConfig config;
  config.workers = 2;
  config.max_batch = 8;
  config.stream_states = &cache;
  EstimationService service(registry, pipeline, config);

  StreamLegResult r;
  r.streams = streams;
  r.chunks = chunks.size();
  const WallTimer timer;
  for (size_t c = 0; c < chunks.size(); ++c) {
    std::vector<std::future<EstimationService::EstimateResult>> futures;
    futures.reserve(streams);
    for (size_t s = 0; s < streams; ++s) {
      futures.push_back(service.SubmitStreamFeatures(1000 + s, chunks[c]));
    }
    for (auto& future : futures) {
      const auto result = future.get();
      ++r.requests;
      if (result.status != RequestStatus::kOk ||
          !SameEstimates(result.estimates, expected[c])) {
        ++r.mismatches;
      }
    }
  }
  r.req_per_sec = static_cast<double>(r.requests) / timer.Seconds();
  r.counters = service.Counters();
  service.Stop();
  return r;
}

// One grid cell drains a queued backlog: a start gate holds every worker in
// the chaos hook until all `requests` are queued, and the clock runs from
// the gate's release to the last result. Each worker's shard then holds
// requests / workers of them, so batch sizes depend on neither submission
// timing nor the host's speed.
CellResult RunCell(std::shared_ptr<const DeepRestEstimator> model,
                   const std::vector<std::vector<float>>& features, size_t workers,
                   size_t batch, size_t requests) {
  ModelRegistry registry;
  IngestPipeline pipeline(model->features(), {.shards = 2});
  registry.Publish(std::move(model));
  std::atomic<bool> open{false};
  EstimationServiceConfig config;
  config.workers = workers;
  config.max_batch = batch;
  config.worker_fault_hook = [&open](size_t) {
    open.wait(false);
    return WorkerFault::kNone;
  };
  EstimationService service(registry, pipeline, config);

  std::vector<std::future<EstimationService::EstimateResult>> futures;
  futures.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    futures.push_back(service.SubmitFeatures(features));
  }
  const WallTimer timer;
  open.store(true);
  open.notify_all();
  for (auto& future : futures) {
    (void)future.get();
  }
  const double seconds = timer.Seconds();
  CellResult result;
  result.requests_per_sec = static_cast<double>(requests) / seconds;
  result.counters = service.Counters();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  PrintBenchHeader("online serving (extension)",
                   "batched sharded estimation + hot-swap consistency");
  HarnessConfig config = SocialBenchConfig();
  config.learn_days = smoke ? 1 : 2;  // keep the warm-start replay bench-sized
  config.estimator.hidden_dim = 8;
  config.estimator.epochs = smoke ? 2 : 6;
  ExperimentHarness harness(config);

  std::printf("Training the serving model (%zu learn windows)...\n\n", harness.learn_windows());
  std::shared_ptr<const DeepRestEstimator> v1(harness.deeprest().Clone());

  // One fixed 8-window query: every request starts from the cached warm
  // state, and a batch stacks its queries as the rows of each GEMM.
  Rng rng(config.seed + 53);
  const auto query = harness.RunQuery(GenerateTraffic(harness.QuerySpec(1), rng));
  const auto features =
      v1->features().ExtractSeries(harness.traces(), query.from, query.from + 8);

  const size_t requests_per_cell = smoke ? 12 : 48;
  const std::vector<size_t> worker_grid = smoke ? std::vector<size_t>{1, 2}
                                                : std::vector<size_t>{1, 4, 8};
  const std::vector<size_t> batch_grid = {1, 16};
  if (!smoke) {
    // Untimed warm-up at the widest worker count. A cell lasts tens of
    // milliseconds, so on a VM whose idle vCPUs are halted the first
    // multi-worker cells would otherwise time their wake-up, not serving.
    const WallTimer warm_up;
    while (warm_up.Seconds() < 2.0) {
      RunCell(v1, features, worker_grid.back(), 1, 256);
    }
  }
  struct GridCell {
    size_t workers;
    size_t batch;
    CellResult result;
  };
  std::vector<GridCell> cells;
  std::vector<std::vector<std::string>> rows;
  for (const size_t w : worker_grid) {
    for (const size_t b : batch_grid) {
      GridCell cell{w, b, RunCell(v1, features, w, b, requests_per_cell)};
      rows.push_back({std::to_string(w), std::to_string(b),
                      FormatDouble(cell.result.requests_per_sec, 1),
                      FormatDouble(cell.result.counters.mean_batch_size, 2),
                      FormatDouble(cell.result.counters.p50_latency_ms, 1),
                      FormatDouble(cell.result.counters.p99_latency_ms, 1)});
      cells.push_back(std::move(cell));
    }
  }
  std::printf("%zu requests per cell, 8 query windows each:\n%s\n", requests_per_cell,
              RenderTable({"workers", "max batch", "req/s", "mean batch", "p50 ms", "p99 ms"},
                          rows)
                  .c_str());

  const auto cell_rps = [&](size_t w, size_t b) {
    for (const GridCell& cell : cells) {
      if (cell.workers == w && cell.batch == b) {
        return cell.result.requests_per_sec;
      }
    }
    return 0.0;
  };
  const size_t max_workers = worker_grid.back();
  const double worker_scaling =
      cell_rps(1, 16) > 0.0 ? cell_rps(max_workers, 16) / cell_rps(1, 16) : 0.0;
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("worker scaling at batch 16 (1 -> %zu workers): %.2fx on %u cores\n\n",
              max_workers, worker_scaling, hardware);

  // The full curve, not just the endpoint ratio: per worker count at batch
  // 16, throughput and its ratio to the 1-worker cell. Downstream tooling
  // tracks the whole shape (a mid-grid plateau is invisible in the endpoint
  // scalar).
  struct ScalingPoint {
    size_t workers;
    double req_per_sec;
    double scaling;
  };
  std::vector<ScalingPoint> scaling_curve;
  for (const size_t w : worker_grid) {
    const double base = cell_rps(1, 16);
    scaling_curve.push_back({w, cell_rps(w, 16), base > 0.0 ? cell_rps(w, 16) / base : 0.0});
  }

  // Scalability verdict: more workers must never lose to one worker. Only
  // meaningful with real parallelism — on a 1-core host the workers time-share
  // and the ratio measures scheduler overhead, so the verdict is skipped.
  const bool scaling_applicable = hardware > 1;
  const bool scaling_ok = worker_scaling >= 1.0;
  std::printf("scalability check (1 -> %zu workers does not regress): %s\n\n", max_workers,
              !scaling_applicable ? "SKIP (1 hardware core)" : scaling_ok ? "PASS" : "FAIL");

  // Batch 16 must beat batch 1 at every worker count: one pass whose GEMMs
  // carry 16 query rows beats 16 one-row passes.
  bool batching_wins = true;
  for (const size_t w : worker_grid) {
    if (cell_rps(w, 16) <= cell_rps(w, 1)) {
      batching_wins = false;
    }
  }
  std::printf("batching check (batch=16 beats batch=1 at every worker count): %s\n\n",
              batching_wins ? "PASS" : "FAIL");

  // Hot-swap consistency: publish a fine-tuned clone mid-run and verify no
  // request mixed weights from two versions.
  std::unique_ptr<DeepRestEstimator> v2 = v1->Clone();
  v2->ContinueLearning(harness.traces(), harness.metrics(), query.from, query.to, 1);
  const EstimateMap ref_v1 = v1->EstimateFromFeatures(features);
  const EstimateMap ref_v2 = v2->EstimateFromFeatures(features);

  ModelRegistry registry;
  IngestPipeline pipeline(v1->features(), {.shards = 2});
  registry.Publish(v1);
  // Two workers so the requests are claimed batch by batch: the swap lands
  // between batch pickups and both versions serve traffic.
  EstimationServiceConfig swap_config;
  swap_config.workers = 2;
  swap_config.max_batch = 8;
  EstimationService service(registry, pipeline, swap_config);

  const size_t kSwapRequests = smoke ? 32 : 64;
  std::vector<std::shared_future<EstimationService::EstimateResult>> futures;
  futures.reserve(kSwapRequests);
  for (size_t i = 0; i < kSwapRequests; ++i) {
    futures.push_back(service.SubmitFeatures(features).share());
  }
  // Swap once the first results are in flight: everything already batched
  // keeps v1, everything still queued picks up v2.
  (void)futures[kSwapRequests / 8].get();
  registry.Publish(std::move(v2));
  size_t torn = 0;
  size_t v1_count = 0;
  size_t v2_count = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    const bool matches_v1 = result.model_version == 1 && SameEstimates(result.estimates, ref_v1);
    const bool matches_v2 = result.model_version == 2 && SameEstimates(result.estimates, ref_v2);
    v1_count += matches_v1;
    v2_count += matches_v2;
    torn += !matches_v1 && !matches_v2;
  }
  std::printf("hot swap mid-run: %zu requests served by v1, %zu by v2, torn results: %zu\n\n",
              v1_count, v2_count, torn);

  // Overload protection: a burst against one worker and a queue of 8.
  // Healthy behavior is a high shed rate with bounded p99 on the accepted
  // requests — not an unbounded queue.
  const size_t kBurst = smoke ? 64 : 256;
  const OverloadResult overload = RunOverload(v1, features, kBurst);
  std::printf("injected overload (%zu-request burst, 1 worker, queue bound 8):\n%s\n", kBurst,
              RenderTable({"served", "shed", "expired", "shed rate", "p99 ms", "torn"},
                          {{std::to_string(overload.ok), std::to_string(overload.shed),
                            std::to_string(overload.expired),
                            FormatDouble(overload.shed_rate, 3),
                            FormatDouble(overload.counters.p99_latency_ms, 1),
                            std::to_string(overload.torn)}})
                  .c_str());
  const bool overload_ok = overload.shed > 0 && overload.torn == 0 &&
                           overload.ok + overload.shed + overload.expired == kBurst;
  std::printf("overload check (excess shed/expired, accepted results bit-exact): %s\n\n",
              overload_ok ? "PASS" : "FAIL");

  // Soft-memory tiered state: N distinct stream contexts under a fixed RAM
  // budget that could not hold them hot. Half the budget caps the fp32 hot
  // tier; the other half pays for the disk slab's index, one
  // kColdEntryOverhead record per slot. Zipf-skewed popularity; a state the
  // slab reclaimed is rebuilt by the consumer. The unbounded baseline holds
  // everything hot — its resident footprint is the proof the budget is real,
  // its latencies the regression yardstick.
  const size_t kContexts = smoke ? 20000 : 1000000;
  const size_t kZipfAccesses = smoke ? 40000 : 1000000;
  const size_t kStateFloats = 32;
  const size_t budget_bytes = smoke ? (size_t{1} << 19) : (size_t{32} << 20);
  StateCacheConfig tiered_config;
  tiered_config.hot_bytes = budget_bytes / 2;
  tiered_config.slab_path = out_path + ".context_slab";
  tiered_config.slab_slot_payload_bytes = StatePayloadBytes(kStateFloats);
  tiered_config.slab_slots = budget_bytes / 2 / kColdEntryOverhead;
  TierResult tier;
  {
    StateCache tiered_cache(tiered_config);  // freed before the baseline fills
    tier = RunContextLeg(tiered_cache, kContexts, kZipfAccesses, kStateFloats,
                         config.seed + 71);
  }
  std::remove(tiered_config.slab_path.c_str());

  StateCacheConfig unbounded_config;
  unbounded_config.hot_bytes = ~size_t{0} / 2;
  StateCache unbounded_cache(unbounded_config);
  const TierResult baseline = RunContextLeg(unbounded_cache, kContexts, kZipfAccesses,
                                            kStateFloats, config.seed + 71);

  std::printf(
      "soft-memory tiered state (%zu contexts, %zu Zipf accesses, budget %s: hot %s "
      "+ %zu-slot disk slab index):\n%s\n",
      kContexts, kZipfAccesses, FormatBytes(budget_bytes).c_str(),
      FormatBytes(tiered_config.hot_bytes).c_str(), tiered_config.slab_slots,
      RenderTable({"cache", "resident MB", "hit rate", "p50 us", "p99 us", "evict", "spill",
                   "drop", "wrong"},
                  {{"budgeted",
                    FormatDouble(static_cast<double>(tier.resident_bytes) / (1 << 20), 2),
                    FormatDouble(tier.hit_rate, 3), FormatDouble(tier.p50_us, 1),
                    FormatDouble(tier.p99_us, 1), std::to_string(tier.counters.evictions),
                    std::to_string(tier.counters.spills), std::to_string(tier.counters.drops),
                    std::to_string(tier.wrong_values)},
                   {"unbounded",
                    FormatDouble(static_cast<double>(baseline.resident_bytes) / (1 << 20), 2),
                    FormatDouble(baseline.hit_rate, 3), FormatDouble(baseline.p50_us, 1),
                    FormatDouble(baseline.p99_us, 1),
                    std::to_string(baseline.counters.evictions),
                    std::to_string(baseline.counters.spills),
                    std::to_string(baseline.counters.drops),
                    std::to_string(baseline.wrong_values)}})
          .c_str());
  const bool under_budget = tier.resident_bytes <= budget_bytes;
  const bool budget_is_real = baseline.resident_bytes > budget_bytes;
  const bool disk_exact = DiskRoundTripExact(out_path + ".slab");
  std::remove((out_path + ".slab").c_str());
  const bool tier_values_ok = tier.wrong_values == 0 && baseline.wrong_values == 0;
  // Tail regression bound: promotions read the slab and misses rebuild, so
  // the budgeted p99 may cost more than an all-hot hit — but boundedly so.
  const double p99_bound = std::max(50.0, 25.0 * baseline.p99_us);
  const bool tail_bounded = tier.p99_us <= p99_bound;
  const bool tier_ok = tier.counters.spills > 0 && under_budget && budget_is_real &&
                       tier_values_ok && disk_exact;
  std::printf(
      "tiered-state check (slab spills, hot + charged cold index under budget, baseline would "
      "not fit, values exact, disk round trip bit-exact): %s\n",
      tier_ok ? "PASS" : "FAIL");
  std::printf("tail check (budgeted p99 %.1f us <= max(50 us, 25x unbounded p99 %.1f us)): %s\n\n",
              tier.p99_us, baseline.p99_us, tail_bounded ? "PASS" : "FAIL");

  // Streamful serving end to end: budgeted cache with a disk cold tier too
  // small to keep every stream hot, results gated bit-identical to direct
  // cursor resume.
  const size_t kStreams = smoke ? 8 : 32;
  StateCacheConfig stream_cache_config;
  stream_cache_config.hot_bytes = 1024;  // a couple of streams at most
  stream_cache_config.slab_path = out_path + ".stream_slab";
  stream_cache_config.slab_slot_payload_bytes = 1 << 14;
  stream_cache_config.slab_slots = 1024;
  StateCache stream_cache(stream_cache_config);
  const StreamLegResult stream_leg =
      RunStreamLeg(v1, features, stream_cache, kStreams);
  std::remove(stream_cache_config.slab_path.c_str());
  std::printf(
      "streamful serving (%zu streams x %zu chunks through a %zu-byte hot tier + disk slab):\n%s\n",
      stream_leg.streams, stream_leg.chunks, stream_cache_config.hot_bytes,
      RenderTable({"requests", "req/s", "p99 ms", "spills", "cold hits", "mismatches"},
                  {{std::to_string(stream_leg.requests),
                    FormatDouble(stream_leg.req_per_sec, 1),
                    FormatDouble(stream_leg.counters.p99_latency_ms, 1),
                    std::to_string(stream_leg.counters.state_spills),
                    std::to_string(stream_leg.counters.state_cold_hits),
                    std::to_string(stream_leg.mismatches)}})
          .c_str());
  const bool stream_ok = stream_leg.mismatches == 0 &&
                         stream_leg.counters.state_spills > 0 &&
                         stream_leg.counters.state_cold_hits > 0;
  std::printf(
      "stream check (bit-identical to direct resume, states actually tiered): %s\n\n",
      stream_ok ? "PASS" : "FAIL");

  // Machine-readable summary for regression tracking (tools/bench_diff).
  {
    std::ofstream json(out_path);
    json << "{\n  \"smoke\": " << (smoke ? 1 : 0) << ",\n";
    json << "  \"hardware_concurrency\": " << hardware << ",\n";
    json << "  \"requests_per_cell\": " << requests_per_cell << ",\n";
    json << "  \"grid\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const GridCell& cell = cells[i];
      json << "    {\"workers\": " << cell.workers << ", \"max_batch\": " << cell.batch
           << ", \"req_per_sec\": " << FormatDouble(cell.result.requests_per_sec, 1)
           << ", \"mean_batch\": " << FormatDouble(cell.result.counters.mean_batch_size, 2)
           << ", \"p50_ms\": " << FormatDouble(cell.result.counters.p50_latency_ms, 1)
           << ", \"p99_ms\": " << FormatDouble(cell.result.counters.p99_latency_ms, 1) << "}"
           << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"worker_scaling\": " << FormatDouble(worker_scaling, 2) << ",\n";
    json << "  \"worker_scaling_curve\": [\n";
    for (size_t i = 0; i < scaling_curve.size(); ++i) {
      const ScalingPoint& p = scaling_curve[i];
      json << "    {\"workers\": " << p.workers
           << ", \"req_per_sec\": " << FormatDouble(p.req_per_sec, 1)
           << ", \"scaling\": " << FormatDouble(p.scaling, 2) << "}"
           << (i + 1 < scaling_curve.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"hot_swap\": {\"v1_served\": " << v1_count << ", \"v2_served\": " << v2_count
         << ", \"torn\": " << torn << "},\n";
    json << "  \"overload\": {\"burst\": " << kBurst << ", \"served\": " << overload.ok
         << ", \"shed\": " << overload.shed << ", \"expired\": " << overload.expired
         << ", \"shed_rate\": " << FormatDouble(overload.shed_rate, 4)
         << ", \"p99_ms\": " << FormatDouble(overload.counters.p99_latency_ms, 3)
         << ", \"torn\": " << overload.torn << "},\n";
    json << "  \"state_cache\": {\"contexts\": " << kContexts
         << ", \"accesses\": " << kZipfAccesses << ", \"budget_bytes\": " << budget_bytes
         << ", \"resident_bytes\": " << tier.resident_bytes
         << ", \"baseline_resident_bytes\": " << baseline.resident_bytes
         << ", \"hit_rate\": " << FormatDouble(tier.hit_rate, 4)
         << ", \"p50_us\": " << FormatDouble(tier.p50_us, 2)
         << ", \"p99_us\": " << FormatDouble(tier.p99_us, 2)
         << ", \"baseline_p50_us\": " << FormatDouble(baseline.p50_us, 2)
         << ", \"baseline_p99_us\": " << FormatDouble(baseline.p99_us, 2)
         << ", \"cold_index_bytes\": " << tier.counters.cold_resident_bytes
         << ", \"evictions\": " << tier.counters.evictions
         << ", \"spills\": " << tier.counters.spills
         << ", \"drops\": " << tier.counters.drops
         << ", \"wrong_values\": " << tier.wrong_values
         << ", \"under_budget\": " << (under_budget ? 1 : 0)
         << ", \"disk_roundtrip_exact\": " << (disk_exact ? 1 : 0) << "},\n";
    json << "  \"stream_serving\": {\"streams\": " << stream_leg.streams
         << ", \"chunks\": " << stream_leg.chunks
         << ", \"requests\": " << stream_leg.requests
         << ", \"req_per_sec\": " << FormatDouble(stream_leg.req_per_sec, 1)
         << ", \"p99_ms\": " << FormatDouble(stream_leg.counters.p99_latency_ms, 3)
         << ", \"spills\": " << stream_leg.counters.state_spills
         << ", \"cold_hits\": " << stream_leg.counters.state_cold_hits
         << ", \"mismatches\": " << stream_leg.mismatches << "}\n";
    json << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Smoke runs gate on correctness only (tiny configs make the perf ratios
  // noisy); full runs additionally require the batching win, the tail bound
  // on budgeted state serving, plus the scalability verdict when the host
  // actually has parallel cores.
  const bool correctness_ok = torn == 0 && overload_ok && tier_ok && stream_ok;
  if (smoke) {
    return correctness_ok ? 0 : 1;
  }
  return correctness_ok && batching_wins && tail_bounded && (!scaling_applicable || scaling_ok)
             ? 0
             : 1;
}

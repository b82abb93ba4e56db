#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "serving.h"
#include "src/core/sanity.h"
#include "src/eval/harness.h"
#include "src/nn/matrix.h"
#include "src/serve/continual_learner.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/serve/state_cache.h"

namespace e2ebench {

namespace {

using deeprest::DeepRestEstimator;
using deeprest::EstimateMap;
using deeprest::EstimationService;
using deeprest::ExperimentHarness;
using deeprest::HarnessConfig;
using deeprest::RequestStatus;
using deeprest::TrafficSeries;
using deeprest::TrafficSpec;
using Series = std::vector<std::vector<float>>;
using Query = ExperimentHarness::QueryResult;

constexpr double kTailQ = 0.99;
// A run whose open-loop generator sent its p99 request later than this after
// it was due measured the client, not the service: it is invalid.
constexpr double kGenLateBoundMs = 100.0;
// The deployment under test is fixed: every workload simulates the same
// application and learning phase and trains the same model, so accuracy and
// training work do not vary with the workload seed. The seed drives what the
// clients send (schedules, request contents, popularity).
constexpr uint64_t kAppSeed = 1;
// Serving workloads: requests per results sample kept for the bit-exactness gate.
constexpr size_t kVerifyEvery = 16;

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Seconds() const { return std::chrono::duration<double>(Clock::now() - start_).count(); }
  double Ms() const { return Seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

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

std::vector<double> Finite(const std::vector<double>& values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// --- Configurations ----------------------------------------------------------

// Serving deployments: a 4-day learning phase of 2-hour windows (12 a day,
// 100 requests each) and a hidden-8 model. Set-up stays under a second, and a
// one-day mode-1 request (12 windows, ~2k synthesized traces at 1.75x users)
// costs more in synthesis and extraction than in its forward pass, as in the
// paper's planning queries, while leaving room for a thousand requests well
// below the knee in ten seconds.
HarnessConfig ServingConfig() {
  HarnessConfig config;
  config.app = HarnessConfig::AppKind::kSocialNetwork;
  config.learn_days = 4;
  config.windows_per_day = 12;
  config.base_requests_per_window = 100.0;
  config.seed = kAppSeed;
  config.estimator.hidden_dim = 8;
  config.estimator.epochs = 6;
  config.estimator.bptt_chunk = 24;
  config.cache_models = false;
  return config;
}

// The paper-size learning phase: seven days at 48 windows a day, hidden 12,
// 12 epochs (what bench/common.h's SocialBenchConfig trains).
HarnessConfig PaperConfig() {
  HarnessConfig config = ServingConfig();
  config.learn_days = 7;
  config.windows_per_day = 48;
  config.base_requests_per_window = 110.0;
  config.estimator.hidden_dim = 12;
  config.estimator.epochs = 12;
  config.estimator.bptt_chunk = 48;
  return config;
}

// Sets the social network's three representative APIs, sharing the rest
// equally among the minor ones (as in the Fig. 15 bench).
void SetComposition(TrafficSpec& spec, double compose, double read, double upload) {
  const double remainder = std::max(0.0, 1.0 - compose - read - upload);
  for (auto& share : spec.mix) {
    if (share.api == "/composePost") {
      share.weight = compose;
    } else if (share.api == "/readTimeline") {
      share.weight = read;
    } else if (share.api == "/uploadMedia") {
      share.weight = upload;
    } else {
      share.weight = remainder / 8.0;
    }
  }
}

TrafficSeries PlanTraffic(const ExperimentHarness& harness, size_t k, size_t size, uint64_t seed);

// Pool of mode-1 query traffic as in Fig. 10/11: user scale in [0.5, 3],
// stratified over the pool so every seed gets the same spread of scales,
// alternating compose-dominated and read-dominated mixes.
std::vector<TrafficSeries> PlanTrafficPool(const ExperimentHarness& harness, size_t size,
                                           uint64_t seed) {
  std::vector<TrafficSeries> pool;
  for (size_t k = 0; k < size; ++k) {
    pool.push_back(PlanTraffic(harness, k, size, seed));
  }
  return pool;
}

TrafficSeries PlanTraffic(const ExperimentHarness& harness, size_t k, size_t size, uint64_t seed) {
  deeprest::Rng rng(seed * 977 + k);
  TrafficSpec spec = harness.QuerySpec(1);
  spec.user_scale = 0.5 + 2.5 * (static_cast<double>(k) + rng.NextDouble()) /
                              static_cast<double>(size);
  if (k % 2 == 0) {
    SetComposition(spec, 0.48, 0.20, 0.06);
  } else {
    SetComposition(spec, 0.06, 0.62, 0.06);
  }
  return GenerateTraffic(spec, rng);
}

TrafficSeries SliceTraffic(const TrafficSeries& traffic, size_t from, size_t windows) {
  TrafficSeries out(traffic.apis(), windows);
  for (size_t w = 0; w < windows; ++w) {
    for (size_t a = 0; a < traffic.api_count(); ++a) {
      out.set_rate(w, a, traffic.rate(from + w, a));
    }
  }
  return out;
}

Series SliceSeries(const Series& series, size_t from, size_t windows) {
  return Series(series.begin() + static_cast<std::ptrdiff_t>(from),
                series.begin() + static_cast<std::ptrdiff_t>(from + windows));
}

// --- Deployment ----------------------------------------------------------------

// One set-up: simulated learning phase, trained model and (optionally) a
// started service. Members are declared in dependency order, so the default
// destructor stops the service before what it references goes away.
struct Deployment {
  std::unique_ptr<ExperimentHarness> harness;
  std::shared_ptr<const DeepRestEstimator> model;
  std::unique_ptr<deeprest::ModelRegistry> registry;
  std::unique_ptr<deeprest::IngestPipeline> pipeline;
  std::unique_ptr<deeprest::StateCache> states;
  std::unique_ptr<EstimationService> service;
  double sim_s = 0.0;
  double train_s = 0.0;
  double setup_s = 0.0;
};

struct SetupPlan {
  HarnessConfig harness;
  bool train = true;
  bool serve = true;
  deeprest::EstimationServiceConfig service;
  bool stream_cache = false;
  deeprest::StateCacheConfig cache;
};

std::unique_ptr<Deployment> SetUpOnce(const SetupPlan& plan, Tracer& tracer) {
  auto d = std::make_unique<Deployment>();
  const Stopwatch total;
  {
    ScopedSpan span(tracer, "sim.learn_phase");
    const Stopwatch watch;
    d->harness = std::make_unique<ExperimentHarness>(plan.harness);
    d->sim_s = watch.Seconds();
  }
  const ExperimentHarness& h = *d->harness;
  if (plan.train) {
    deeprest::EstimatorConfig config = plan.harness.estimator;
    config.seed = plan.harness.seed;
    auto model = std::make_unique<DeepRestEstimator>(config);
    ScopedSpan span(tracer, "core.train");
    const Stopwatch watch;
    model->Learn(h.traces(), h.metrics(), 0, h.learn_windows(), h.app().MetricCatalog());
    d->train_s = watch.Seconds();
    d->model = std::move(model);
  }
  if (plan.serve) {
    ScopedSpan span(tracer, "serve.start");
    d->registry = std::make_unique<deeprest::ModelRegistry>();
    d->registry->Publish(d->model);
    d->pipeline = std::make_unique<deeprest::IngestPipeline>(d->model->features(),
                                                             deeprest::IngestPipelineConfig{});
    deeprest::EstimationServiceConfig config = plan.service;
    if (plan.stream_cache) {
      d->states = std::make_unique<deeprest::StateCache>(plan.cache);
      config.stream_states = d->states.get();
    }
    d->service = std::make_unique<EstimationService>(*d->registry, *d->pipeline, config);
  }
  d->setup_s = total.Seconds();
  return d;
}

// --- Accuracy, estimate latency and refresh ------------------------------------

// Ground truth for mode-1 accuracy: one day at unseen scale (Fig. 14: 2x
// users) and one at unseen composition (Fig. 15: 50/25/15 compose/read/
// upload). Fixed inputs, simulated right after set-up, so their ground truth
// is the same in every run.
std::vector<Query> SimulateAccuracyQueries(ExperimentHarness& harness) {
  std::vector<Query> queries;
  for (size_t k = 0; k < 2; ++k) {
    deeprest::Rng rng(131 + k);
    TrafficSpec spec = harness.QuerySpec(1);
    if (k == 0) {
      spec.user_scale = 2.0;
    } else {
      SetComposition(spec, 0.50, 0.25, 0.15);
    }
    queries.push_back(harness.RunQuery(GenerateTraffic(spec, rng)));
  }
  return queries;
}

void IngestWindows(deeprest::IngestPipeline& pipeline, const ExperimentHarness& harness,
                   size_t from, size_t to) {
  const auto keys = harness.metrics().Keys();
  for (size_t w = from; w < to; ++w) {
    for (const deeprest::Trace& trace : harness.traces().TracesAt(w)) {
      pipeline.IngestTrace(w, trace);
    }
    for (const auto& key : keys) {
      pipeline.IngestMetric(key, w, harness.metrics().At(key, w));
    }
  }
}

// Continual-learning refresh outside the live path: the accuracy queries'
// telemetry, ingested and sealed once into a private pipeline and registry.
// Each Once() runs a fresh learner's RefreshOnce over it (clone, fine-tune,
// validate, publish), so every sample does the same work.
class RefreshFixture {
 public:
  RefreshFixture(const std::shared_ptr<const DeepRestEstimator>& model,
                 const ExperimentHarness& harness, const std::vector<Query>& queries,
                 size_t epochs)
      : pipeline_(model->features(), deeprest::IngestPipelineConfig{}),
        from_(queries.front().from) {
    registry_.Publish(model);
    for (const Query& query : queries) {
      IngestWindows(pipeline_, harness, query.from, query.to);
    }
    pipeline_.Fold(pipeline_.WindowFrontier() - 1);
    config_.min_new_windows = 8;
    config_.epochs = epochs;
  }
  RefreshFixture(const RefreshFixture&) = delete;
  RefreshFixture& operator=(const RefreshFixture&) = delete;

  // Seconds of one refresh.
  double Once(Tracer& tracer) {
    deeprest::ContinualLearner learner(registry_, pipeline_, from_, config_);
    ScopedSpan span(tracer, "learner.refresh");
    const Stopwatch watch;
    (void)learner.RefreshOnce();
    const double seconds = watch.Seconds();
    rejected_ += learner.models_rejected();
    return seconds;
  }
  uint64_t rejected() const { return rejected_; }

 private:
  deeprest::ModelRegistry registry_;
  deeprest::IngestPipeline pipeline_;
  size_t from_;
  deeprest::ContinualLearnerConfig config_;
  uint64_t rejected_ = 0;
};

// Set-ups per run; the set-up figures are their medians.
constexpr size_t kSetups = 9;

// The set-up figures of one run, at the reference speed (see FastCpus): the
// median set-up (setup_s), the median training inside one (train_s, when the
// plan trains) and the simulator's rate. The deployment under test is the
// first set-up; the others run at the end of the run, one at a time, after
// it is gone. Each set-up keeps some 7 MB the process does not get back, so
// set-ups made before the measured phase would show in its peak_rss_mb.
class SetupTimes {
 public:
  SetupTimes(const SetupPlan& plan, Tracer& tracer) : plan_(plan), tracer_(tracer) {}

  // One timed set-up, on the currently fastest CPU.
  std::unique_ptr<Deployment> SetUp() {
    const FastCpus fastest(1);
    const FastCpus::Mark mark = fastest.Now();
    std::unique_ptr<Deployment> d = SetUpOnce(plan_, tracer_);
    const double scale = fastest.ToReference(mark);
    raw_s_.push_back(d->setup_s);
    setup_s_.push_back(d->setup_s * scale);
    train_s_.push_back(d->train_s * scale);
    sim_s_.push_back(d->sim_s * scale);
    windows_ = static_cast<double>(d->harness->learn_windows());
    return d;
  }

  // Makes the remaining set-ups (discarding each) and reports the figures.
  void Finish(Report& report) {
    while (setup_s_.size() < kSetups) {
      (void)SetUp();
    }
    const auto list = [](const std::vector<double>& values) {
      std::string out;
      for (double v : values) {
        out += Fmt(" %.4g", v);
      }
      return out;
    };
    report.Set("setup_s", Median(setup_s_));
    report.Set("sim.windows_per_s", windows_ / Median(sim_s_));
    if (plan_.train) {
      const double train = Median(train_s_);
      const double epochs = static_cast<double>(plan_.harness.estimator.epochs);
      report.Set("train_s", train);
      report.Set("core.train_epoch_s", train / epochs);
      report.Set("core.train_windows_per_s", windows_ * epochs / train);
    }
    report.Note("set-ups at reference speed: s" + list(setup_s_) + "; train s" + list(train_s_) +
                "; as measured: s" + list(raw_s_));
  }

 private:
  SetupPlan plan_;
  Tracer& tracer_;
  std::vector<double> raw_s_, setup_s_, train_s_, sim_s_;
  double windows_ = 0.0;
};

// Mean CPU MAPE of `model` over components and queries (deterministic for a
// fixed model and ground truth).
double CpuMape(const DeepRestEstimator& model, const ExperimentHarness& harness,
               const std::vector<Query>& queries) {
  std::vector<double> mapes;
  for (const Query& query : queries) {
    const EstimateMap estimates = model.EstimateFromTraffic(query.traffic, 31 + query.from);
    for (const auto& key : model.resources()) {
      if (key.resource == deeprest::ResourceKind::kCpu) {
        mapes.push_back(harness.QueryMape(estimates, query, key));
      }
    }
  }
  return std::accumulate(mapes.begin(), mapes.end(), 0.0) /
         static_cast<double>(std::max<size_t>(mapes.size(), 1));
}

// Median time of ModelRegistry::Publish, replayed into a scratch registry.
double PublishMs(const std::shared_ptr<const DeepRestEstimator>& model) {
  deeprest::ModelRegistry scratch;
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Stopwatch watch;
    scratch.Publish(model);
    ms.push_back(watch.Ms());
  }
  return Median(ms);
}

// --- nn replays ----------------------------------------------------------------

// Multiply-adds of one batched forward window per request column, counted from
// the GEMM shapes (E experts, hidden H, D features): GRU input projections
// 3*H*D and recurrences 3*H*H, heads 3*2H, linear bypass 3*D per expert, and
// E*E*H for the cross-expert attention. Element-wise work is not counted.
double ForwardFlopsPerWindow(const DeepRestEstimator& model) {
  const double e = static_cast<double>(model.expert_count());
  const double h = static_cast<double>(model.hidden_dim());
  const double d = static_cast<double>(model.features().dimension());
  return 2.0 * (e * (3 * h * d + 3 * h * h + 6 * h + 3 * d) + e * e * h);
}

struct ForwardReplay {
  double ms_per_req = 0.0;
  double gflops = 0.0;
  double batch_ms = 0.0;  // mean time of one batch of `batch` requests
};

// Replays feature series through EstimateFromFeaturesBatch in batches of
// `batch` (the service's mean batch size), timing each call.
ForwardReplay ReplayForward(const DeepRestEstimator& model, const std::vector<Series>& series,
                            size_t batch, Tracer& tracer) {
  ForwardReplay replay;
  batch = std::max<size_t>(batch, 1);
  double seconds = 0.0;
  double windows = 0.0;
  size_t calls = 0;
  for (size_t i = 0; i < series.size(); i += batch) {
    std::vector<const Series*> pointers;
    for (size_t j = i; j < std::min(series.size(), i + batch); ++j) {
      pointers.push_back(&series[j]);
      windows += static_cast<double>(series[j].size());
    }
    ScopedSpan span(tracer, "nn.forward");
    const Stopwatch watch;
    (void)model.EstimateFromFeaturesBatch(pointers);
    seconds += watch.Seconds();
    ++calls;
  }
  if (!series.empty()) {
    replay.ms_per_req = seconds * 1e3 / static_cast<double>(series.size());
    replay.gflops = windows * ForwardFlopsPerWindow(model) / seconds / 1e9;
    replay.batch_ms = seconds * 1e3 / static_cast<double>(calls);
  }
  return replay;
}

// Per-request forward cost of one 8-window series at batch 1 and batch 16.
void ReportForwardShapes(const DeepRestEstimator& model, const Series& eight, Report& report) {
  std::vector<double> b1, b16;
  for (int rep = 0; rep < 15; ++rep) {
    const Stopwatch watch;
    (void)model.EstimateFromFeaturesBatch({&eight});
    b1.push_back(watch.Ms());
  }
  const std::vector<const Series*> sixteen(16, &eight);
  for (int rep = 0; rep < 5; ++rep) {
    const Stopwatch watch;
    (void)model.EstimateFromFeaturesBatch(sixteen);
    b16.push_back(watch.Ms() / 16.0);
  }
  report.Set("nn.forward_b1_ms", Median(b1));
  report.Set("nn.forward_b16_ms_per_req", Median(b16));
}

// MatMulInto at the serving shape (H x D) * (D x B).
double GemmGflops(size_t h, size_t d, size_t b) {
  deeprest::Matrix a(h, d), x(d, b), out(h, b);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>((i * 37) % 101) / 101.0f - 0.5f;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>((i * 53) % 97) / 97.0f - 0.5f;
  }
  size_t calls = 0;
  const Stopwatch watch;
  while (watch.Seconds() < 0.05) {
    for (int k = 0; k < 64; ++k) {
      deeprest::MatMulInto(a, x, out);
    }
    calls += 64;
  }
  return 2.0 * static_cast<double>(h * d * b * calls) / watch.Seconds() / 1e9;
}

// --- Serving phase helpers -----------------------------------------------------

void ReportAccounting(const PhaseStats& s, const std::string& label, Report& report) {
  report.Note(label + ": sent " + std::to_string(s.sent) + " ok " + std::to_string(s.ok) +
              " shed " + std::to_string(s.shed) + " expired " + std::to_string(s.expired) +
              " rejected " + std::to_string(s.rejected) + " wrong " + std::to_string(s.wrong) +
              " | offered " + Fmt("%.1f/s", s.offered_rate) + " p50 " +
              Fmt("%.3f ms", Quantile(s.latency_ms, 0.5)) + " p99 " +
              Fmt("%.3f ms", Quantile(s.latency_ms, kTailQ)) + " gen_late p99 " +
              Fmt("%.3f ms", Quantile(s.gen_late_ms, kTailQ)));
}

// End-to-end figures of the nominal open-loop phase plus its gates. The
// latency figures come from sets of at least 1000 requests each (default:
// one per round of the phase): latency_p50_ms pools them, the per-layer
// client.latency_p99_ms is the median of their p99s, so one stretch that met
// a host stall does not decide it. `scale` takes both to the reference speed
// (FastCpus::ToReference over the phase).
void ReportNominal(const std::vector<PhaseStats>& rounds, double scale, Report& report,
                   std::vector<std::vector<double>> latency_sets = {}) {
  PhaseStats total;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const PhaseStats& s = rounds[r];
    ReportAccounting(s, "nominal round " + std::to_string(r + 1), report);
    report.Gate(s.accounted(), "request accounting: sent == ok+shed+expired+rejected+wrong");
    total.sent += s.sent;
    total.ok += s.ok;
    total.shed += s.shed;
    total.expired += s.expired;
    total.rejected += s.rejected;
    total.wrong += s.wrong;
    total.gen_late_ms.insert(total.gen_late_ms.end(), s.gen_late_ms.begin(), s.gen_late_ms.end());
    if (latency_sets.size() < rounds.size()) {
      latency_sets.push_back(s.latency_ms);
    }
  }
  std::vector<double> pooled, set_p99;
  std::string set_list;
  for (const std::vector<double>& set : latency_sets) {
    pooled.insert(pooled.end(), set.begin(), set.end());
    set_p99.push_back(Quantile(set, kTailQ));
    set_list += Fmt(" %.3f", set_p99.back());
    report.Gate(set.size() >= SamplesForTail(kTailQ),
                "latency set of " + std::to_string(set.size()) + " has >= 10 samples beyond p99");
  }
  report.Note("latency sets: p99 ms" + set_list);
  report.attempted += total.sent;
  report.failed += total.failed();
  report.Note("latency as measured: p50 " + Fmt("%.4f ms", Quantile(pooled, 0.5)) + ", p99 " +
              Fmt("%.4f ms", Median(set_p99)) + "; reference-speed factor " + Fmt("%.4f", scale));
  report.Set("latency_p50_ms", Quantile(pooled, 0.5) * scale);
  report.Set("client.latency_p99_ms", Median(set_p99) * scale);
  report.Set("ok_ratio",
             static_cast<double>(total.ok) / static_cast<double>(std::max<size_t>(total.sent, 1)));
  report.Set("client.gen_late_ms.p50", Quantile(total.gen_late_ms, 0.5));
  report.Set("client.gen_late_ms.p99", Quantile(total.gen_late_ms, kTailQ));
  report.Set("requests.sent", static_cast<double>(total.sent));
  report.Set("requests.ok", static_cast<double>(total.ok));
  report.Set("requests.shed", static_cast<double>(total.shed));
  report.Set("requests.expired", static_cast<double>(total.expired));
  report.Set("requests.rejected", static_cast<double>(total.rejected));
  report.Gate(Quantile(total.gen_late_ms, kTailQ) <= kGenLateBoundMs,
              "generator p99 lateness <= " + Fmt("%.0f ms", kGenLateBoundMs));
}

// A rate fails only when a second probe at it, on a fresh schedule, fails
// too: a probe lasts about a second, and one host stall inside it would
// otherwise decide the search.
double SearchCapacityRps(const std::function<PhaseStats(double, uint64_t)>& run_probe,
                         double start, double limit_ms, size_t slack, uint64_t seed,
                         Report& report) {
  uint64_t probe_seed = seed;
  const CapacityResult result = SearchCapacity(
      [&](double rate) {
        CapacityProbe probe;
        probe.tail_ms = std::numeric_limits<double>::infinity();
        for (int attempt = 0; attempt < 2 && !probe.pass; ++attempt) {
          const PhaseStats s = run_probe(rate, ++probe_seed);
          const double tail_ms = Quantile(s.latency_ms, kTailQ);
          probe.pass = s.failed() == 0 && tail_ms <= limit_ms && !s.growing(slack);
          probe.tail_ms = std::min(probe.tail_ms, tail_ms);
          report.Note("capacity probe " + Fmt("%.1f/s", rate) + ": n " + std::to_string(s.sent) +
                      " p99 " + Fmt("%.2f ms", tail_ms) + " failed " +
                      std::to_string(s.failed()) + " backlog " + std::to_string(s.backlog_early) +
                      "->" + std::to_string(s.backlog_late) + (probe.pass ? " pass" : " FAIL"));
        }
        return probe;
      },
      start, kCapacityGrowth, kCapacityBisections, limit_ms, /*min_rate=*/5.0, /*max_rate=*/20000.0);
  report.Note("capacity: " + Fmt("%.1f/s", result.capacity) + " (bracket " +
              Fmt("%.1f", result.lo) + " .. " + Fmt("%.1f", result.hi) + ", limit p99 <= " +
              Fmt("%.0f ms", limit_ms) + ")");
  return result.capacity;
}

// Requests in a set whose p99 must have ten samples beyond it, with margin.
constexpr size_t kTailSet = 1050;

// Probe arrivals: a p99 set, or 0.8 s of traffic when that is more.
std::vector<double> ProbeSchedule(uint64_t seed, double rate) {
  return PoissonArrivals(seed, rate, std::max(kTailSet, static_cast<size_t>(rate * 0.8)));
}

// Service counters sampled during a traced phase.
struct CounterSampler {
  EstimationService* service = nullptr;
  size_t queue_max = 0;
  std::vector<double> snapshot_us;
  void Sample() {
    const Stopwatch watch;
    const deeprest::ServiceCounters c = service->Counters();
    snapshot_us.push_back(watch.Seconds() * 1e6);
    queue_max = std::max(queue_max, c.queue_depth);
  }
};

// Mean size of the batches the service formed between two counter snapshots.
double MeanBatch(const deeprest::ServiceCounters& before, const deeprest::ServiceCounters& after) {
  const double batches =
      static_cast<double>(after.batches_dispatched - before.batches_dispatched);
  const double batched = after.mean_batch_size * static_cast<double>(after.batches_dispatched) -
                         before.mean_batch_size * static_cast<double>(before.batches_dispatched);
  return batches > 0 ? batched / batches : 0.0;
}

// The batch size replays run at: the service's mean, rounded, at least 1.
size_t ReplayBatch(const deeprest::ServiceCounters& before,
                   const deeprest::ServiceCounters& after) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(MeanBatch(before, after))));
}

void ReportServeLayer(const PhaseStats& s, const deeprest::ServiceCounters& before,
                      const deeprest::ServiceCounters& after, const CounterSampler& sampler,
                      double batch_compute_ms, Report& report) {
  report.Set("serve.batches",
             static_cast<double>(after.batches_dispatched - before.batches_dispatched));
  report.Set("serve.batch_mean", MeanBatch(before, after));
  report.Set("serve.submit_us.p50", Quantile(s.submit_us, 0.5));
  report.Set("serve.submit_us.p99", Quantile(s.submit_us, kTailQ));
  report.Set("serve.queue_depth.max", static_cast<double>(sampler.queue_max));
  report.Set("serve.snapshot_us", sampler.snapshot_us.empty() ? 0.0 : Median(sampler.snapshot_us));
  std::vector<double> overhead;
  for (double ms : Finite(s.service_ms)) {
    overhead.push_back(ms - batch_compute_ms);
  }
  report.Set("serve.overhead_ms.p50", overhead.empty() ? 0.0 : Quantile(overhead, 0.5));
  report.Set("serve.overhead_ms.p99", overhead.empty() ? 0.0 : Quantile(overhead, kTailQ));
}

void ReportTraceOverhead(double untraced, double traced, Report& report) {
  report.Note("trace overhead: untraced p50 " + Fmt("%.3f", untraced) + " traced p50 " +
              Fmt("%.3f", traced));
  report.Set("trace_overhead_pct", (traced - untraced) / untraced * 100.0);
}

// --- Stateless open-loop workloads -----------------------------------------------

// Request i of a phase is a function of the phase seed and i alone, so the
// benchmark recomputes any request instead of keeping it.
uint64_t RequestSeed(uint64_t phase_seed, size_t i) {
  return SplitMix(phase_seed * 0x100000001B3ULL + i).Next();
}

// features_open and traffic_plan: every request is built from its request
// seed, and `reference` computes its answer single-threaded through public
// functions.
struct StatelessLoad {
  std::function<std::future<EstimationService::EstimateResult>(uint64_t request)> send;
  std::function<EstimateMap(uint64_t request)> reference;
  std::string reference_name;  // for the gate line
  double nominal_rate = 0.0;
  size_t rounds = 1;      // nominal rounds, each a latency set (see ReportNominal)
  size_t round_n = 0;     // requests per round
  double probe_start = 0.0;  // first offered rate of the capacity search
  double limit_ms = 0.0;     // latency limit of the capacity search
  size_t slack = 0;          // backlog slack of the capacity search
};

// The traced nominal round, for the workload's per-layer replays.
struct TracedRound {
  PhaseStats stats;
  uint64_t phase_seed = 0;
  deeprest::ServiceCounters before, after;
  CounterSampler sampler;
};

struct Kept {
  uint64_t request;
  EstimationService::EstimateResult result;
};

// One open-loop phase; keeps every kVerifyEvery-th successful result.
PhaseStats RunStatelessPhase(const StatelessLoad& load, const std::vector<double>& due,
                             uint64_t phase_seed, std::vector<Kept>* kept,
                             CounterSampler* sampler, Tracer& tracer) {
  OpenLoopHooks hooks;
  hooks.send = [&](size_t i) {
    Pending p;
    p.estimate = load.send(RequestSeed(phase_seed, i));
    return p;
  };
  hooks.finish = [&](size_t i, Pending& p) {
    EstimationService::EstimateResult result = p.estimate.get();
    const Outcome outcome = OutcomeOf(result.status);
    if (outcome == Outcome::kOk && result.estimates.empty()) {
      return Outcome::kWrong;
    }
    if (kept != nullptr && outcome == Outcome::kOk && i % kVerifyEvery == 0) {
      kept->push_back({RequestSeed(phase_seed, i), std::move(result)});
    }
    return outcome;
  };
  if (sampler != nullptr) {
    hooks.sample = [sampler] { sampler->Sample(); };
  }
  return RunOpenLoop(due, hooks, tracer);
}

void VerifyKept(const StatelessLoad& load, const std::vector<Kept>& kept, Report& report) {
  size_t wrong = 0;
  for (const Kept& k : kept) {
    const bool same = k.result.model_version == 1 &&
                      SameEstimates(k.result.estimates, load.reference(k.request));
    wrong += same ? 0 : 1;
  }
  report.Gate(!kept.empty() && wrong == 0, "served results bit-identical to " +
                                               load.reference_name + " (" +
                                               std::to_string(kept.size()) + " sampled)");
}

// The stateless serving workloads' threads (client and two workers) run on
// the two currently fastest CPUs (see FastCpus). live_monitor's four
// (producer, client and two workers) keep one CPU each, so refreshes and
// ingest on the producer do not take CPU time from the reads; there FastCpus
// only measures the speed.
constexpr size_t kServeCpus = 2;
constexpr size_t kLiveCpus = 4;

// Untraced: the nominal rounds; publishes the end-to-end metrics and returns
// nothing. Traced: the first nominal round untraced, then traced with the
// same schedule, then the capacity search; returns the traced round.
std::optional<TracedRound> RunStateless(const Options& options, const StatelessLoad& load,
                                        Deployment& d, Tracer& tracer, Report& report) {
  const FastCpus fastest(kServeCpus);
  const auto round_due = [&](size_t r) {
    return PoissonArrivals(options.seed * 1000 + 1 + 10 * r, load.nominal_rate, load.round_n);
  };
  const auto round_seed = [&](size_t r) { return options.seed * 1000 + 2 + 10 * r; };
  std::vector<Kept> kept;
  if (!options.trace) {
    RssSampler rss;
    const FastCpus::Mark mark = fastest.Now();
    std::vector<PhaseStats> rounds;
    for (size_t r = 0; r < load.rounds; ++r) {
      kept.clear();
      rounds.push_back(RunStatelessPhase(load, round_due(r), round_seed(r), &kept, nullptr, tracer));
      VerifyKept(load, kept, report);
    }
    const double scale = fastest.ToReference(mark);
    report.Set("peak_rss_mb", rss.Stop());
    ReportNominal(rounds, scale, report);
    return std::nullopt;
  }

  TracedRound traced;
  traced.phase_seed = round_seed(0);
  const std::vector<double> due = round_due(0);
  const PhaseStats untraced =
      RunStatelessPhase(load, due, traced.phase_seed, nullptr, nullptr, tracer);
  traced.sampler.service = d.service.get();
  traced.before = d.service->Counters();
  const FastCpus::Mark mark = fastest.Now();
  traced.stats = RunStatelessPhase(load, due, traced.phase_seed, &kept, &traced.sampler, tracer);
  const double scale = fastest.ToReference(mark);
  traced.after = d.service->Counters();
  ReportNominal({traced.stats}, scale, report);
  VerifyKept(load, kept, report);
  ReportTraceOverhead(Quantile(untraced.latency_ms, 0.5), Quantile(traced.stats.latency_ms, 0.5),
                      report);
  report.Set("serve.capacity_rps",
             SearchCapacityRps(
                 [&](double rate, uint64_t seed) {
                   return RunStatelessPhase(load, ProbeSchedule(seed, rate), seed + 7, nullptr,
                                            nullptr, tracer);
                 },
                 load.probe_start, load.limit_ms, load.slack, options.seed * 1000 + 100, report));
  return traced;
}

// --- features_open --------------------------------------------------------------

// Stateless SubmitFeatures storm: open-loop Poisson arrivals, each request a
// prebuilt feature series of 4-16 windows cut from real query windows.
void FeaturesOpen(const Options& options, Tracer& tracer, Report& report) {
  SetupPlan plan;
  plan.harness = ServingConfig();
  plan.service.workers = 2;  // + client: three threads on kServeCpus CPUs
  plan.service.max_batch = 16;
  plan.service.max_queue = 2048;
  SetupTimes setups(plan, tracer);
  auto d = setups.SetUp();
  ExperimentHarness& harness = *d->harness;
  const DeepRestEstimator& model = *d->model;
  report.Set("cpu_mape", CpuMape(model, harness, SimulateAccuracyQueries(harness)));

  // Input pool: four days of real query windows, featured once.
  deeprest::Rng rng(options.seed * 7 + 3);
  const Query pool_query = harness.RunQuery(GenerateTraffic(harness.QuerySpec(4), rng));
  const Series pool = model.features().ExtractSeries(harness.traces(), pool_query.from,
                                                     pool_query.to);
  const auto cut = [&](uint64_t request) {
    SplitMix draw(request);
    const size_t windows = 4 + draw.Below(13);
    return SliceSeries(pool, draw.Below(pool.size() - windows + 1), windows);
  };

  StatelessLoad load;
  load.send = [&](uint64_t request) { return d->service->SubmitFeatures(cut(request)); };
  load.reference = [&](uint64_t request) {
    const Series series = cut(request);
    return model.EstimateFromFeaturesBatch({&series})[0];
  };
  load.reference_name = "single-threaded batch";
  // About a fifth of capacity: the nominal latencies must hold steady when a
  // shared host takes time from the service's CPUs. Three rounds of half
  // --seconds each, and at least kTailSet requests (see ReportNominal).
  load.nominal_rate = 200.0;
  load.rounds = 3;
  load.round_n = std::max(kTailSet, static_cast<size_t>(load.nominal_rate * options.seconds / 2));
  load.probe_start = 4.0 * load.nominal_rate;
  // Below saturation the batched p99 sits at 5-40 ms and moves with host
  // noise; past it the queue grows and the p99 runs into the hundreds, so a
  // limit above the noise band finds the saturation point, not a hiccup.
  load.limit_ms = 100.0;
  load.slack = 3 * plan.service.max_batch;
  const std::optional<TracedRound> traced = RunStateless(options, load, *d, tracer, report);
  if (!traced) {
    d.reset();
    setups.Finish(report);
    return;
  }

  std::vector<Series> replay;
  for (size_t i = 0; i < traced->stats.sent; i += 4) {
    replay.push_back(cut(RequestSeed(traced->phase_seed, i)));
  }
  const size_t batch = ReplayBatch(traced->before, traced->after);
  const ForwardReplay forward = ReplayForward(model, replay, batch, tracer);
  report.Set("nn.forward_ms_per_req", forward.ms_per_req);
  report.Set("nn.forward_gflops", forward.gflops);
  ReportForwardShapes(model, SliceSeries(pool, 0, 8), report);
  report.Set("nn.gemm_gflops", GemmGflops(model.hidden_dim(), model.features().dimension(), batch));
  ReportServeLayer(traced->stats, traced->before, traced->after, traced->sampler, forward.batch_ms,
                   report);
  report.Note("replayed forward at batch " + std::to_string(batch) + ": " +
              Fmt("%.3f ms/req", forward.ms_per_req));
  d.reset();
  setups.Finish(report);
}

// --- traffic_plan ---------------------------------------------------------------

// Mode-1 capacity planning: open-loop SubmitTraffic requests carrying one day
// of hypothetical traffic at 0.5-3x users, compose- or read-dominated.
void TrafficPlan(const Options& options, Tracer& tracer, Report& report) {
  constexpr size_t kPoolSize = 64;
  SetupPlan plan;
  plan.harness = ServingConfig();
  plan.service.workers = 2;  // + client: three threads on kServeCpus CPUs
  plan.service.max_batch = 8;
  plan.service.max_queue = 1024;
  SetupTimes setups(plan, tracer);
  auto d = setups.SetUp();
  ExperimentHarness& harness = *d->harness;
  const DeepRestEstimator& model = *d->model;
  report.Set("cpu_mape", CpuMape(model, harness, SimulateAccuracyQueries(harness)));

  const std::vector<TrafficSeries> pool = PlanTrafficPool(harness, kPoolSize, options.seed);
  struct Pick {
    const TrafficSeries* traffic;
    uint64_t seed;
  };
  const auto pick = [&](uint64_t request) {
    SplitMix draw(request);
    const TrafficSeries* traffic = &pool[draw.Below(pool.size())];
    return Pick{traffic, draw.Next()};
  };
  // The public steps the service runs for a request, single-threaded.
  const auto featurize = [&](const Pick& p, double* synth_ms, double* extract_ms,
                             size_t* traces) {
    deeprest::Rng rng(p.seed);
    deeprest::TraceCollector synthetic;
    Stopwatch watch;
    {
      ScopedSpan span(tracer, "core.synth");
      model.synthesizer().SynthesizeSeries(*p.traffic, 0, rng, synthetic);
    }
    if (synth_ms != nullptr) {
      *synth_ms += watch.Ms();
    }
    watch = Stopwatch();
    Series series;
    {
      ScopedSpan span(tracer, "core.extract");
      series = model.features().ExtractSeries(synthetic, 0, p.traffic->windows());
    }
    if (extract_ms != nullptr) {
      *extract_ms += watch.Ms();
    }
    if (traces != nullptr) {
      *traces += synthetic.total_traces();
    }
    return series;
  };

  StatelessLoad load;
  load.send = [&](uint64_t request) {
    const Pick p = pick(request);
    return d->service->SubmitTraffic(*p.traffic, p.seed);
  };
  load.reference = [&](uint64_t request) {
    const Series series = featurize(pick(request), nullptr, nullptr, nullptr);
    return model.EstimateFromFeaturesBatch({&series})[0];
  };
  load.reference_name = "single-threaded synth+extract+batch";
  load.nominal_rate = 80.0;  // about a third of capacity
  load.round_n = std::max(kTailSet, static_cast<size_t>(load.nominal_rate * options.seconds * 1.3));
  // Two workers saturate near 200-260 req/s: starting above that costs
  // probes that each drain a long backlog.
  load.probe_start = 2.5 * load.nominal_rate;
  load.limit_ms = 300.0;  // see FeaturesOpen
  load.slack = 3 * plan.service.max_batch;
  const std::optional<TracedRound> traced = RunStateless(options, load, *d, tracer, report);
  if (!traced) {
    d.reset();
    setups.Finish(report);
    return;
  }

  double synth_ms = 0.0, extract_ms = 0.0;
  size_t traces = 0;
  std::vector<Series> replay;
  for (size_t i = 0; i < traced->stats.sent; i += 8) {
    replay.push_back(
        featurize(pick(RequestSeed(traced->phase_seed, i)), &synth_ms, &extract_ms, &traces));
  }
  const double n = static_cast<double>(replay.size());
  report.Set("core.synth_ms_per_req", synth_ms / n);
  report.Set("core.synth_traces_per_s", static_cast<double>(traces) / (synth_ms / 1e3));
  report.Set("core.extract_ms_per_req", extract_ms / n);
  report.Set("core.extract_traces_per_s", static_cast<double>(traces) / (extract_ms / 1e3));
  const size_t batch = ReplayBatch(traced->before, traced->after);
  const ForwardReplay forward = ReplayForward(model, replay, batch, tracer);
  report.Set("nn.forward_ms_per_req", forward.ms_per_req);
  report.Set("nn.forward_gflops", forward.gflops);
  ReportForwardShapes(model, SliceSeries(replay.front(), 0, 8), report);
  report.Set("nn.gemm_gflops", GemmGflops(model.hidden_dim(), model.features().dimension(), batch));
  // A batch's compute: every request synthesized and extracted in turn,
  // then one batched forward.
  const double batch_compute_ms =
      static_cast<double>(batch) * (synth_ms + extract_ms) / n + forward.batch_ms;
  ReportServeLayer(traced->stats, traced->before, traced->after, traced->sampler, batch_compute_ms,
                   report);
  d.reset();
  setups.Finish(report);
}

// --- live_monitor ---------------------------------------------------------------

struct LiveResult {
  PhaseStats stats;
  double scale = 1.0;  // reference-speed factor of the live phase
  // Stream-read latencies (not sanity checks), in kReadSets consecutive
  // stretches of the live phase.
  std::vector<std::vector<double>> read_latency_ms;
  bool attack_flagged = false;
  size_t stream_checked = 0;
  size_t stream_wrong = 0;
  uint64_t rejected = 0;
  deeprest::StateCacheCounters cache;
  size_t lag_max = 0;
  std::vector<double> refresh_ms;
  CounterSampler sampler;
  std::shared_ptr<const DeepRestEstimator> final_model;
};

// The `deeprest serve` deployment with writes beside reads: a producer thread
// replays live telemetry (with a cryptojacking miner on one component) at a
// fixed window rate; the client sends Zipf-popular stream reads over many
// more streams than the hot state tier holds, plus periodic sanity checks;
// the producer runs ContinualLearner::RefreshOnce at fixed windows.
void LiveMonitor(const Options& options, Tracer& tracer, Report& report) {
  constexpr size_t kLiveWindows = 48;  // four days at 12 windows a day
  constexpr size_t kAttackFrom = 34;   // miner active in live windows [34, 48)
  constexpr size_t kRefreshAt[] = {8, 16, 24, 32};
  constexpr size_t kStreams = 2048;
  constexpr size_t kChunk = 4;
  // The reads form kReadSets latency sets of at least kTailSet each
  // (client.latency_p99_ms is the median of their p99s); the rate is raised
  // on runs too short for that.
  constexpr double kReadRate = 360.0;
  constexpr size_t kReadSets = 5;
  constexpr size_t kSanityEvery = 4;  // windows between sanity checks
  const std::string kTarget = "PostStorageMongoDB";
  const double window_s = options.seconds * 1.5 / static_cast<double>(kLiveWindows);

  SetupPlan plan;
  plan.harness = ServingConfig();
  plan.service.workers = 2;  // + producer + client: four threads
  plan.service.max_batch = 16;
  plan.service.max_queue = 2048;
  plan.stream_cache = true;
  plan.cache.hot_bytes = 160 << 10;  // a few dozen stream states
  plan.cache.cold_tier = deeprest::ColdTier::kDisk;
  plan.cache.slab_path = options.scratch_dir + "/e2ebench_live.slab";
  plan.cache.slab_slot_payload_bytes = 4096;
  plan.cache.slab_slots = kStreams + 64;

  // Live telemetry, the same in every run (the seed drives the clients),
  // simulated once up front with the miner injected. It is the benchmark's
  // input, so it is not part of set-up time.
  const auto live_inputs = [&](ExperimentHarness& harness) {
    deeprest::Rng rng(313);
    deeprest::AttackSpec attack;
    attack.kind = deeprest::AttackSpec::Kind::kCryptojacking;
    attack.component = kTarget;
    attack.start_window = harness.learn_windows() + kAttackFrom;
    attack.end_window = harness.learn_windows() + kLiveWindows;
    harness.simulator().AddAttack(attack);
    TrafficSpec spec = harness.QuerySpec(kLiveWindows / harness.config().windows_per_day);
    return harness.RunQuery(GenerateTraffic(spec, rng));
  };

  const auto run_live = [&](Deployment& d, const Query& live, bool traced_run) {
    const FastCpus fastest(kLiveCpus);
    LiveResult out;
    ExperimentHarness& harness = *d.harness;
    const Series chunks_pool =
        d.model->features().ExtractSeries(harness.traces(), live.from, live.to);
    std::map<uint64_t, std::shared_ptr<const DeepRestEstimator>> models;
    models[1] = d.model;
    deeprest::ContinualLearnerConfig learner_config;
    learner_config.min_new_windows = 8;
    learner_config.epochs = 6;
    deeprest::ContinualLearner learner(*d.registry, *d.pipeline, live.from, learner_config);

    // Client schedule: Poisson stream reads plus a sanity check every few windows.
    const double live_s = window_s * static_cast<double>(kLiveWindows);
    const size_t read_n = std::max(kReadSets * kTailSet, static_cast<size_t>(kReadRate * live_s));
    const std::vector<double> reads =
        PoissonArrivals(options.seed * 1000 + 5, static_cast<double>(read_n) / live_s, read_n);
    struct Req {
      double due;
      bool sanity;
      uint64_t stream;
      size_t chunk_from;
    };
    std::vector<Req> reqs;
    {
      const ZipfSampler zipf(kStreams, 1.0);
      SplitMix draw(options.seed * 1000 + 6);
      std::map<uint64_t, size_t> uses;
      size_t next_sanity = kSanityEvery;
      for (double t : reads) {
        while (static_cast<double>(next_sanity) * window_s < t && next_sanity < kLiveWindows) {
          reqs.push_back({static_cast<double>(next_sanity) * window_s, true, 0, 0});
          next_sanity += kSanityEvery;
        }
        const uint64_t stream = 1 + zipf.Draw(draw);
        const size_t k = uses[stream]++;
        reqs.push_back({t, false, stream, (stream * 7 + k * kChunk) % (kLiveWindows - kChunk)});
      }
    }
    std::vector<double> due(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      due[i] = reqs[i].due;
    }
    // Per-stream log of sampled streams (every 8th rank, hottest included),
    // replayed afterwards against the model version that served each chunk.
    struct Served {
      size_t chunk_from;
      uint64_t version;
      EstimateMap estimates;
    };
    std::map<uint64_t, std::vector<Served>> logs;
    std::map<uint64_t, long> last_of_stream;
    out.sampler.service = d.service.get();

    // Producer: one window per window_s. The refreshes run on this thread
    // right after it ingests their window, so the deployment never runs more
    // threads than CPUs and the served versions change at fixed windows.
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    std::thread producer([&] {
      const auto keys = harness.metrics().Keys();
      size_t next_refresh = 0;
      for (size_t k = 0; k < kLiveWindows; ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(window_s * static_cast<double>(k))));
        const size_t w = live.from + k;
        for (const deeprest::Trace& trace : harness.traces().TracesAt(w)) {
          ScopedSpan span(tracer, "ingest.trace");
          d.pipeline->IngestTrace(w, trace);
        }
        for (const auto& key : keys) {
          ScopedSpan span(tracer, "ingest.metric");
          d.pipeline->IngestMetric(key, w, harness.metrics().At(key, w));
        }
        if (next_refresh < std::size(kRefreshAt) && k == kRefreshAt[next_refresh]) {
          ++next_refresh;
          ScopedSpan span(tracer, "learner.refresh");
          const Stopwatch watch;
          const uint64_t version = learner.RefreshOnce();
          out.refresh_ms.push_back(watch.Ms());
          if (version != 0) {
            models[version] = d.registry->Current().model;
          }
        }
      }
    });

    OpenLoopHooks hooks;
    hooks.must_wait = [&](size_t i) -> long {
      if (reqs[i].sanity) {
        return -1;
      }
      const auto it = last_of_stream.find(reqs[i].stream);
      return it == last_of_stream.end() ? -1 : it->second;
    };
    hooks.send = [&](size_t i) {
      Pending p;
      const Req& r = reqs[i];
      if (r.sanity) {
        const size_t sealed = std::max(d.pipeline->featured_windows(), live.from);
        p.sanity = d.service->SubmitSanityCheck(live.from, std::max(sealed, live.from + 1));
      } else {
        last_of_stream[r.stream] = static_cast<long>(i);
        p.estimate = d.service->SubmitStreamFeatures(
            r.stream, SliceSeries(chunks_pool, r.chunk_from, kChunk));
      }
      return p;
    };
    hooks.finish = [&](size_t i, Pending& p) {
      const Req& r = reqs[i];
      if (r.sanity) {
        return OutcomeOf(p.sanity.get().status);
      }
      EstimationService::EstimateResult result = p.estimate.get();
      const Outcome outcome = OutcomeOf(result.status);
      if (outcome == Outcome::kOk && (r.stream - 1) % 8 == 0) {
        logs[r.stream].push_back({r.chunk_from, result.model_version, std::move(result.estimates)});
      } else if (outcome != Outcome::kOk && (r.stream - 1) % 8 == 0) {
        logs[r.stream].push_back({r.chunk_from, 0, {}});
      }
      return outcome;
    };
    hooks.sample = [&] {
      out.lag_max = std::max(out.lag_max, d.pipeline->IngestLag());
      if (traced_run) {
        out.sampler.Sample();
      }
    };
    {
      // Align the client's clock with the producer's.
      std::this_thread::sleep_until(start);
      const FastCpus::Mark mark = fastest.Now();
      out.stats = RunOpenLoop(due, hooks, tracer);
      out.scale = fastest.ToReference(mark);
    }
    std::vector<double> read_ms;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].sanity) {
        read_ms.push_back(out.stats.latency_ms[i]);
      }
    }
    for (size_t k = 0; k < kReadSets; ++k) {
      out.read_latency_ms.emplace_back(
          read_ms.begin() + static_cast<std::ptrdiff_t>(read_ms.size() * k / kReadSets),
          read_ms.begin() + static_cast<std::ptrdiff_t>(read_ms.size() * (k + 1) / kReadSets));
    }
    producer.join();
    out.rejected = learner.models_rejected();

    // Final authoritative sanity check over the whole live range.
    d.pipeline->Fold(d.pipeline->WindowFrontier());
    const EstimationService::SanityResult final_check =
        d.service->SubmitSanityCheck(live.from, live.to).get();
    for (const deeprest::AnomalyEvent& event : final_check.events) {
      const bool overlaps = event.end_window > kAttackFrom && event.start_window < kLiveWindows;
      bool names_target = false;
      for (size_t j = 0; j < std::min<size_t>(event.deviations.size(), 3); ++j) {
        names_target = names_target || event.deviations[j].key.component == kTarget;
      }
      out.attack_flagged = out.attack_flagged || (overlaps && names_target);
      report.Note("final sanity event: windows [" + std::to_string(event.start_window) + ", " +
                  std::to_string(event.end_window) + ") top " +
                  (event.deviations.empty() ? std::string("-")
                                            : event.deviations.front().key.component));
    }
    out.cache = d.states->Counters();
    out.final_model = d.registry->Current().model;

    // Stream-state gate: replay each sampled stream's chunks in order.
    for (const auto& [stream, log] : logs) {
      DeepRestEstimator::StreamCursor cursor;
      uint64_t version = 0;
      for (const Served& s : log) {
        if (s.version == 0) {
          continue;  // not served; the state did not advance
        }
        if (s.version != version) {
          cursor = {};
          version = s.version;
        }
        const Series chunk = SliceSeries(chunks_pool, s.chunk_from, kChunk);
        const auto it = models.find(s.version);
        const bool ok = it != models.end() &&
                        SameEstimates(s.estimates, it->second->EstimateFromFeaturesBatchResume(
                                                       {&chunk}, {&cursor})[0]);
        ++out.stream_checked;
        out.stream_wrong += ok ? 0 : 1;
      }
    }
    return out;
  };

  const auto finish_gates = [&](const LiveResult& live) {
    report.Gate(live.attack_flagged, "final sanity check flags " + kTarget + " in attack windows");
    report.Gate(live.stream_checked > 0 && live.stream_wrong == 0,
                "stream state: zero wrong values (" + std::to_string(live.stream_checked) +
                    " chunks replayed)");
    report.Gate(live.refresh_ms.size() == std::size(kRefreshAt) && live.rejected == 0,
                "every refresh published (no validation rejection)");
  };

  SetupTimes setups(plan, tracer);
  if (!options.trace) {
    auto d = setups.SetUp();
    const Query live = live_inputs(*d->harness);
    const std::vector<Query> accuracy_queries = SimulateAccuracyQueries(*d->harness);
    RssSampler rss;
    const LiveResult result = run_live(*d, live, false);
    report.Set("peak_rss_mb", rss.Stop());
    ReportNominal({result.stats}, result.scale, report, result.read_latency_ms);
    finish_gates(result);
    report.Set("cpu_mape", CpuMape(*result.final_model, *d->harness, accuracy_queries));
    report.Note("live refreshes under load: median " +
                Fmt("%.4f s", Median(result.refresh_ms) / 1e3));
    d.reset();
    setups.Finish(report);
    return;
  }

  // Traced run: one untraced live phase for the overhead baseline, then a
  // fresh deployment run traced.
  double untraced_p50 = 0.0;
  {
    Tracer off(false);
    auto d = SetUpOnce(plan, off);
    const Query live = live_inputs(*d->harness);
    untraced_p50 = Quantile(run_live(*d, live, false).read_latency_ms[kReadSets / 2], 0.5);
  }
  auto d = setups.SetUp();
  const Query live = live_inputs(*d->harness);
  const deeprest::ServiceCounters before = d->service->Counters();
  const LiveResult result = run_live(*d, live, true);
  const deeprest::ServiceCounters after = d->service->Counters();
  ReportNominal({result.stats}, result.scale, report, result.read_latency_ms);
  finish_gates(result);
  ReportTraceOverhead(untraced_p50, Quantile(result.read_latency_ms[kReadSets / 2], 0.5),
                      report);

  const auto ingest_us = [&](const char* name) {
    std::vector<double> us = tracer.DurationsMs(name);
    for (double& v : us) {
      v *= 1e3;
    }
    return us;
  };
  report.Set("ingest.trace_us.p50", Quantile(ingest_us("ingest.trace"), 0.5));
  report.Set("ingest.trace_us.p99", Quantile(ingest_us("ingest.trace"), kTailQ));
  report.Set("ingest.metric_us.p50", Quantile(ingest_us("ingest.metric"), 0.5));
  report.Set("ingest.lag_windows.max", static_cast<double>(result.lag_max));
  report.Set("learner.refresh_ms", Median(result.refresh_ms));
  report.Set("learner.rejected", static_cast<double>(result.rejected));
  const uint64_t accesses = result.cache.hot_hits + result.cache.cold_hits + result.cache.misses;
  report.Set("state.hit_rate", accesses > 0 ? static_cast<double>(result.cache.hot_hits +
                                                                 result.cache.cold_hits) /
                                                  static_cast<double>(accesses)
                                            : 0.0);
  report.Set("state.evictions", static_cast<double>(result.cache.evictions));
  report.Set("state.spills", static_cast<double>(result.cache.spills));
  report.Set("state.drops", static_cast<double>(result.cache.drops));
  report.Set("state.resident_mb",
             static_cast<double>(result.cache.hot_resident_bytes + result.cache.cold_resident_bytes) /
                 (1024.0 * 1024.0));

  // Replays of the work the service and learner did inside their threads.
  {
    deeprest::IngestPipeline replay(d->model->features(), deeprest::IngestPipelineConfig{});
    IngestWindows(replay, *d->harness, live.from, live.to);
    const Stopwatch watch;
    for (size_t w = 1; w <= live.to; ++w) {
      ScopedSpan span(tracer, "ingest.fold");
      replay.Fold(w);
    }
    report.Set("ingest.fold_ms_per_window", watch.Ms() / static_cast<double>(live.to));
    Series slice;
    {
      const Stopwatch s;
      slice = replay.FeatureSlice(live.from, live.to);
      report.Set("ingest.slice_ms", s.Ms());
    }
    {
      const Stopwatch s;
      const deeprest::MetricsStore copy = replay.MetricsCopy();
      report.Set("ingest.metrics_copy_ms", s.Ms());
    }
    const EstimateMap estimates = result.final_model->EstimateFromFeaturesBatch({&slice})[0];
    const deeprest::MetricsStore actuals = replay.MetricsCopy();
    deeprest::SanityChecker checker;
    std::vector<double> detect_ms;
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span(tracer, "core.detect");
      const Stopwatch s;
      (void)checker.Detect(estimates, actuals, live.from, live.to);
      detect_ms.push_back(s.Ms());
    }
    report.Set("core.detect_ms", Median(detect_ms));
  }
  const Series pool = d->model->features().ExtractSeries(d->harness->traces(), live.from, live.to);
  std::vector<Series> chunks;
  for (size_t i = 0; i + kChunk <= pool.size(); i += 2) {
    chunks.push_back(SliceSeries(pool, i, kChunk));
  }
  const size_t batch = ReplayBatch(before, after);
  const ForwardReplay forward = ReplayForward(*result.final_model, chunks, batch, tracer);
  report.Set("nn.forward_ms_per_req", forward.ms_per_req);
  report.Set("nn.forward_gflops", forward.gflops);
  ReportForwardShapes(*result.final_model, SliceSeries(pool, 0, 8), report);
  report.Set("nn.gemm_gflops",
             GemmGflops(d->model->hidden_dim(), d->model->features().dimension(), batch));
  ReportServeLayer(result.stats, before, after, result.sampler, forward.batch_ms, report);
  report.Set("registry.publish_ms", PublishMs(result.final_model));
  d.reset();
  setups.Finish(report);
}

// --- learn_estimate -------------------------------------------------------------

// learn_estimate's measured phase on the simulated learning phase `harness`:
// Learn from scratch, then answer mode-1 queries one at a time and score
// accuracy at unseen scale and composition.
void LearnAndEstimate(const Options& options, const HarnessConfig& harness_config,
                      ExperimentHarness& harness, Tracer& tracer, Report& report) {
  // p99 with 12 samples beyond, and few enough queries that training stays
  // the larger part of the measured phase.
  constexpr size_t kQueries = 1200;
  constexpr size_t kQueryWindows = 4;
  const std::vector<Query> accuracy_queries = SimulateAccuracyQueries(harness);

  // Query inputs: 2-hour slices of Fig. 10/11-style plan traffic.
  const std::vector<TrafficSeries> days = PlanTrafficPool(harness, 32, options.seed);
  std::vector<TrafficSeries> queries;
  std::vector<uint64_t> seeds;
  {
    SplitMix draw(options.seed * 1000 + 9);
    for (size_t q = 0; q < kQueries; ++q) {
      const TrafficSeries& day = days[draw.Below(days.size())];
      queries.push_back(SliceTraffic(day, draw.Below(day.windows() - kQueryWindows + 1),
                                     kQueryWindows));
      seeds.push_back(draw.Next());
    }
  }

  // Everything from here on is single-threaded: it runs on the currently
  // fastest CPU.
  const FastCpus fastest(1);
  RssSampler rss;
  const int64_t phase = tracer.Begin("phase");
  deeprest::EstimatorConfig config = harness_config.estimator;
  config.seed = harness_config.seed;
  auto model = std::make_unique<DeepRestEstimator>(config);
  double train_s = 0.0, train_scale = 1.0;
  {
    ScopedSpan span(tracer, "core.train", phase);
    const FastCpus::Mark mark = fastest.Now();
    const Stopwatch watch;
    model->Learn(harness.traces(), harness.metrics(), 0, harness.learn_windows(),
                 harness.app().MetricCatalog());
    train_s = watch.Seconds();
    train_scale = fastest.ToReference(mark);
  }
  const std::shared_ptr<const DeepRestEstimator> trained(std::move(model));
  // Queries, one at a time. Traced, each is split into the public steps
  // EstimateFromTraffic runs (synthesize, extract, batch-1 forward).
  const auto run_queries = [&](bool split, std::vector<EstimateMap>* keep) {
    std::vector<double> ms(kQueries);
    for (size_t q = 0; q < kQueries; ++q) {
      const Stopwatch watch;
      EstimateMap estimates;
      if (!split) {
        estimates = trained->EstimateFromTraffic(queries[q], seeds[q]);
      } else {
        ScopedSpan span(tracer, "mode1.query", phase, q + 1);
        deeprest::Rng rng(seeds[q]);
        deeprest::TraceCollector synthetic;
        {
          ScopedSpan s(tracer, "core.synth", span.id(), q + 1);
          trained->synthesizer().SynthesizeSeries(queries[q], 0, rng, synthetic);
        }
        Series series;
        {
          ScopedSpan s(tracer, "core.extract", span.id(), q + 1);
          series = trained->features().ExtractSeries(synthetic, 0, queries[q].windows());
        }
        ScopedSpan s(tracer, "nn.forward", span.id(), q + 1);
        estimates = trained->EstimateFromFeaturesBatch({&series})[0];
      }
      ms[q] = watch.Ms();
      if (keep != nullptr && q % kVerifyEvery == 0) {
        keep->push_back(std::move(estimates));
      }
    }
    return ms;
  };
  std::vector<EstimateMap> kept;
  const FastCpus::Mark mark = fastest.Now();
  const std::vector<double> query_ms = run_queries(options.trace, &kept);
  const double query_scale = fastest.ToReference(mark);
  const double query_s = std::accumulate(query_ms.begin(), query_ms.end(), 0.0) / 1e3;
  tracer.End(phase);
  report.Set("peak_rss_mb", rss.Stop());

  size_t wrong = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    const size_t q = k * kVerifyEvery;
    deeprest::Rng rng(seeds[q]);
    deeprest::TraceCollector synthetic;
    trained->synthesizer().SynthesizeSeries(queries[q], 0, rng, synthetic);
    const Series series = trained->features().ExtractSeries(synthetic, 0, queries[q].windows());
    wrong += (!kept[k].empty() &&
              SameEstimates(kept[k], trained->EstimateFromFeaturesBatch({&series})[0]))
                 ? 0
                 : 1;
  }
  report.Gate(wrong == 0, "mode-1 answers bit-identical to synth+extract+batch replay (" +
                              std::to_string(kept.size()) + " sampled)");
  report.attempted += kQueries;
  report.failed += wrong;

  const double epochs = static_cast<double>(config.epochs);
  report.Set("train_s", train_s * train_scale);
  report.Set("core.train_epoch_s", train_s * train_scale / epochs);
  report.Set("core.train_windows_per_s",
             static_cast<double>(harness.learn_windows()) * epochs / (train_s * train_scale));
  report.Set("latency_p50_ms", Quantile(query_ms, 0.5) * query_scale);
  report.Set("client.latency_p99_ms", Quantile(query_ms, kTailQ) * query_scale);
  report.Set("ok_ratio", static_cast<double>(kQueries - wrong) / static_cast<double>(kQueries));
  report.Set("requests.sent", static_cast<double>(kQueries));
  report.Set("requests.ok", static_cast<double>(kQueries - wrong));
  report.Note("as measured: learn " + Fmt("%.3f s", train_s) + " (reference-speed factor " +
              Fmt("%.4f", train_scale) + "); " + std::to_string(kQueries) + " queries in " +
              Fmt("%.3f s", query_s) + ", p50 " + Fmt("%.3f ms", Quantile(query_ms, 0.5)) +
              " p99 " + Fmt("%.3f ms", Quantile(query_ms, kTailQ)) + " (factor " +
              Fmt("%.4f", query_scale) + ")");

  report.Set("cpu_mape", CpuMape(*trained, harness, accuracy_queries));

  if (options.trace) {
    // Untraced query latency for the overhead figure.
    const std::vector<double> plain = run_queries(false, nullptr);
    ReportTraceOverhead(Quantile(plain, 0.5), Quantile(query_ms, 0.5), report);
    const auto self = tracer.SelfSecondsByName();
    const auto spans = tracer.Spans();
    const double phase_s =
        static_cast<double>(spans[static_cast<size_t>(phase)].end_ns -
                            spans[static_cast<size_t>(phase)].start_ns) /
        1e9;
    const auto get = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    report.Set("core.train_share", get("core.train") / phase_s);
    const double n = static_cast<double>(kQueries);
    report.Set("core.synth_ms_per_req", get("core.synth") * 1e3 / n);
    report.Set("core.extract_ms_per_req", get("core.extract") * 1e3 / n);
    report.Set("nn.forward_ms_per_req", get("nn.forward") * 1e3 / n);
    report.Note("measured phase " + Fmt("%.3f s", phase_s) + ": train self " +
                Fmt("%.3f s", get("core.train")) + ", query self " +
                Fmt("%.3f s", get("mode1.query")) + ", synth " + Fmt("%.3f s", get("core.synth")) +
                ", extract " + Fmt("%.3f s", get("core.extract")) + ", forward " +
                Fmt("%.3f s", get("nn.forward")));
    RefreshFixture refresh(trained, harness, accuracy_queries, /*epochs=*/2);
    std::vector<double> refresh_ms;
    for (int rep = 0; rep < 3; ++rep) {
      refresh_ms.push_back(refresh.Once(tracer) * 1e3);
    }
    report.Set("registry.publish_ms", PublishMs(trained));
    report.Set("learner.refresh_ms", Median(refresh_ms));
    report.Set("learner.rejected", static_cast<double>(refresh.rejected()));
  }
}

// The paper's offline pipeline: simulate the 7-day learning phase (set-up),
// then LearnAndEstimate.
void LearnEstimate(const Options& options, Tracer& tracer, Report& report) {
  SetupPlan plan;
  plan.harness = PaperConfig();
  plan.train = false;
  plan.serve = false;
  SetupTimes setups(plan, tracer);
  auto d = setups.SetUp();
  LearnAndEstimate(options, plan.harness, *d->harness, tracer, report);
  d.reset();
  setups.Finish(report);
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"features_open", 3},   // client + 2 workers
      {"traffic_plan", 3},    // client + 2 workers
      {"live_monitor", 4},    // producer + client + 2 workers
      {"learn_estimate", 1},  // single-threaded learn and queries
  };
  return kWorkloads;
}

bool RunWorkload(const Options& options, Tracer& tracer, Report& report) {
  if (options.workload == "features_open") {
    FeaturesOpen(options, tracer, report);
  } else if (options.workload == "traffic_plan") {
    TrafficPlan(options, tracer, report);
  } else if (options.workload == "live_monitor") {
    LiveMonitor(options, tracer, report);
  } else if (options.workload == "learn_estimate") {
    LearnEstimate(options, tracer, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace e2ebench

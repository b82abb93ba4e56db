// Open-loop client for EstimationService: one thread sends every request at
// its scheduled time whether or not earlier ones finished, and harvests
// completions in between. Latency runs from when a request was due, so a
// stall also charges the requests queued behind it; how late the generator
// itself ran is recorded separately.
#ifndef E2EBENCH_SERVING_H_
#define E2EBENCH_SERVING_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "src/serve/estimation_service.h"
#include "tracer.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

// A submitted request: exactly one of the two futures is valid.
struct Pending {
  std::future<deeprest::EstimationService::EstimateResult> estimate;
  std::future<deeprest::EstimationService::SanityResult> sanity;

  bool Ready() const;
  void Wait() const;
  // Waits until ready or `until`; true when ready.
  bool WaitUntil(Clock::time_point until) const;
};

enum class Outcome { kOk, kShed, kExpired, kRejected, kWrong };

Outcome OutcomeOf(deeprest::RequestStatus status);

struct OpenLoopHooks {
  // Submits request i (called at or after its due time).
  std::function<Pending(size_t i)> send;
  // Consumes request i's ready result and classifies it.
  std::function<Outcome(size_t i, Pending& pending)> finish;
  // Optional: a request that must complete before i may be sent (a stream
  // client waits for its previous chunk); negative for none.
  std::function<long(size_t i)> must_wait;
  // Optional: called about every 10 ms on the client thread.
  std::function<void()> sample;
};

// Per-phase request accounting. sent == ok + shed + expired + rejected + wrong.
struct PhaseStats {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t rejected = 0;
  size_t wrong = 0;
  double offered_rate = 0.0;
  // Index-aligned with the schedule. Latency is due -> done; infinite when
  // the request did not succeed (a failure misses every latency limit).
  std::vector<double> latency_ms;
  std::vector<double> service_ms;  // sent -> done (finite for successes only)
  std::vector<double> gen_late_ms;  // sent - due
  std::vector<double> submit_us;    // time spent inside the Submit* call
  size_t backlog_early = 0;  // max in-flight over the first half of the schedule
  size_t backlog_late = 0;   // max in-flight over the last quarter

  size_t failed() const { return shed + expired + rejected + wrong; }
  bool accounted() const { return sent == ok + failed(); }
  // Backlog still climbing at the end of the schedule.
  bool growing(size_t slack) const { return backlog_late > 2 * backlog_early + slack; }
};

PhaseStats RunOpenLoop(const std::vector<double>& due_s, const OpenLoopHooks& hooks,
                       Tracer& tracer);

}  // namespace e2ebench

#endif  // E2EBENCH_SERVING_H_

#include "serving.h"

#include <algorithm>
#include <limits>
#include <thread>

namespace e2ebench {

namespace {

// Harvest granularity for requests other than the oldest in flight (the
// oldest wakes the client the moment it resolves).
constexpr auto kPoll = std::chrono::microseconds(50);

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

bool Pending::Ready() const {
  return estimate.valid()
             ? estimate.wait_for(std::chrono::seconds(0)) == std::future_status::ready
             : sanity.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void Pending::Wait() const {
  if (estimate.valid()) {
    estimate.wait();
  } else {
    sanity.wait();
  }
}

bool Pending::WaitUntil(Clock::time_point until) const {
  return (estimate.valid() ? estimate.wait_until(until) : sanity.wait_until(until)) ==
         std::future_status::ready;
}

Outcome OutcomeOf(deeprest::RequestStatus status) {
  switch (status) {
    case deeprest::RequestStatus::kOk:
      return Outcome::kOk;
    case deeprest::RequestStatus::kShed:
      return Outcome::kShed;
    case deeprest::RequestStatus::kExpired:
      return Outcome::kExpired;
    case deeprest::RequestStatus::kRejectedStopped:
    case deeprest::RequestStatus::kHedgedDuplicate:
      return Outcome::kRejected;
  }
  return Outcome::kRejected;
}

PhaseStats RunOpenLoop(const std::vector<double>& due_s, const OpenLoopHooks& hooks,
                       Tracer& tracer) {
  struct Slot {
    size_t index;
    Pending pending;
    Clock::time_point sent;
  };
  const size_t n = due_s.size();
  PhaseStats stats;
  stats.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  stats.service_ms.assign(n, std::numeric_limits<double>::infinity());
  stats.gen_late_ms.assign(n, 0.0);
  stats.submit_us.reserve(n);
  if (n == 0) {
    return stats;
  }
  const double span_s = due_s.back();
  stats.offered_rate = span_s > 0.0 ? static_cast<double>(n) / span_s : 0.0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::vector<Slot> inflight;
  Clock::time_point next_sample = start;

  const auto complete = [&](size_t pos, Clock::time_point done) {
    Slot& slot = inflight[pos];
    const size_t i = slot.index;
    const Outcome outcome = hooks.finish(i, slot.pending);
    switch (outcome) {
      case Outcome::kOk:
        ++stats.ok;
        stats.latency_ms[i] = Ms(done - due_at(i));
        stats.service_ms[i] = Ms(done - slot.sent);
        break;
      case Outcome::kShed:
        ++stats.shed;
        break;
      case Outcome::kExpired:
        ++stats.expired;
        break;
      case Outcome::kRejected:
        ++stats.rejected;
        break;
      case Outcome::kWrong:
        ++stats.wrong;
        break;
    }
    tracer.Record("request", ToNs(slot.sent), ToNs(done), -1, i + 1);
    inflight[pos] = std::move(inflight.back());
    inflight.pop_back();
  };
  const auto harvest = [&] {
    for (size_t pos = 0; pos < inflight.size();) {
      if (inflight[pos].pending.Ready()) {
        complete(pos, Clock::now());
      } else {
        ++pos;
      }
    }
  };

  size_t next = 0;
  while (next < n || !inflight.empty()) {
    Clock::time_point now = Clock::now();
    while (next < n && due_at(next) <= now) {
      // Lateness is taken before any wait for a stream's previous chunk: that
      // wait is the service's, and it shows in this request's latency.
      stats.gen_late_ms[next] = Ms(now - due_at(next));
      if (hooks.must_wait) {
        const long blocker = hooks.must_wait(next);
        for (size_t pos = 0; blocker >= 0 && pos < inflight.size(); ++pos) {
          if (inflight[pos].index == static_cast<size_t>(blocker)) {
            inflight[pos].pending.Wait();
            complete(pos, Clock::now());
            break;
          }
        }
      }
      const Clock::time_point t0 = Clock::now();
      Pending pending = hooks.send(next);
      const Clock::time_point t1 = Clock::now();
      stats.submit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      tracer.Record("serve.submit", ToNs(t0), ToNs(t1), -1, next + 1);
      inflight.push_back({next, std::move(pending), t0});
      ++stats.sent;
      if (next < n / 2) {
        stats.backlog_early = std::max(stats.backlog_early, inflight.size());
      } else if (next >= n - n / 4) {
        stats.backlog_late = std::max(stats.backlog_late, inflight.size());
      }
      ++next;
      now = Clock::now();
    }
    harvest();
    now = Clock::now();
    if (hooks.sample && now >= next_sample) {
      hooks.sample();
      next_sample = now + std::chrono::milliseconds(10);
    }
    const Clock::time_point wake = next < n ? due_at(next) : now + kPoll;
    if (inflight.empty()) {
      std::this_thread::sleep_until(wake);
    } else {
      const Clock::time_point until = std::min(wake, now + kPoll);
      if (inflight.front().pending.WaitUntil(until)) {
        complete(0, Clock::now());
      }
    }
  }
  return stats;
}

}  // namespace e2ebench

#pragma once
/// \file kernel_workloads.hpp
/// \brief The three canonical event-kernel workloads timed by
/// `bench_kernel` and recorded in BENCH_ledger.jsonl.
///
/// They are defined here (header-only, against the public Simulator API
/// only) so the exact same code can be timed against any kernel revision:
/// the ledger's pre-overhaul kernel row was produced by building this file
/// against the `std::priority_queue` + `unordered_map` kernel.
///
///  - schedule_fire : N one-shot events scheduled up front, then drained.
///    Measures the pure schedule+dispatch path (one op = one event).
///  - cancel_heavy  : schedule/cancel churn with a live event population,
///    the ARQ timer pattern (one op = one schedule+cancel pair).
///  - timer_rearm   : a small set of protocol timers each re-armed far in
///    the future over and over (cancel + re-schedule), then drained; the
///    tombstone-accumulation worst case (one op = one re-arm).

#include <chrono>
#include <cstdint>

#include "lamsdlc/core/simulator.hpp"

namespace lamsdlc::bench {

struct WorkloadResult {
  std::uint64_t ops = 0;
  double seconds = 0;
  [[nodiscard]] double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
};

template <typename Fn>
WorkloadResult time_workload(std::uint64_t ops, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return {ops, std::chrono::duration<double>(t1 - t0).count()};
}

inline WorkloadResult wl_schedule_fire(std::uint64_t n) {
  return time_workload(n, [n] {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sim.schedule_at(Time::microseconds(static_cast<std::int64_t>(i % 1000)),
                      [&fired] { ++fired; });
    }
    sim.run();
  });
}

inline WorkloadResult wl_cancel_heavy(std::uint64_t n) {
  return time_workload(n, [n] {
    Simulator sim;
    // Keep a live population of 64 events so cancellation works against a
    // realistically loaded heap, as in a window of outstanding ARQ timers.
    constexpr std::uint64_t kLive = 64;
    EventId ring[kLive] = {};
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto slot = i % kLive;
      if (ring[slot] != 0) sim.cancel(ring[slot]);
      ring[slot] =
          sim.schedule_in(Time::milliseconds(1 + static_cast<std::int64_t>(slot)),
                          [] {});
    }
    sim.run();
  });
}

inline WorkloadResult wl_timer_rearm(std::uint64_t n) {
  return time_workload(n, [n] {
    Simulator sim;
    // 8 failure-style timers, each parked far in the future and re-armed
    // round-robin: every re-arm is a cancel that leaves (pre-overhaul) a
    // tombstone near the bottom of the heap.
    constexpr std::uint64_t kTimers = 8;
    EventId timers[kTimers] = {};
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto t = i % kTimers;
      if (timers[t] != 0) sim.cancel(timers[t]);
      timers[t] = sim.schedule_in(
          Time::seconds_int(3600 + static_cast<std::int64_t>(i % 60)), [] {});
    }
    sim.run();
  });
}

}  // namespace lamsdlc::bench

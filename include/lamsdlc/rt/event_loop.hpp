#pragma once
/// \file event_loop.hpp
/// \brief One timer kernel, two drivers: simulated time and wall time.
///
/// Everything above the link layer in this codebase is written against the
/// discrete-event `Simulator` — endpoints schedule timers, the kernel
/// dispatches them in timestamp order, and *nothing* inspects real time.
/// That discipline is what makes the live runtime cheap: `rt::EventLoop`
/// keeps the Simulator as the one and only timer kernel and merely changes
/// who decides when its clock advances.
///
///  - `rt::SimClock` — the clock advances by fiat: `run()` is exactly
///    `Simulator::run()`, time jumps event-to-event.  Every existing test
///    and experiment is already running on this driver (bit-identical; the
///    class adds no logic, only the `EventLoop` shape).
///
///  - `rt::WallClock` — the clock advances because the wall does: `run()`
///    sleeps in `ppoll(2)` until the earliest pending timer is due (or a
///    watched fd turns readable), then calls `Simulator::run_until(now)`.
///    Timers fire at most one scheduler quantum late; the protocol code
///    cannot tell it is not being simulated.  The ready fds are read
///    before any overdue timer runs.
///
/// The fd-watching surface exists only for the wall driver — a simulated
/// run has no sockets.  `SimClock::watch_fd` throws, loudly, because code
/// that needs an fd under simulation is a design error, not a fallback.
///
/// Single-threaded by construction: handlers and timer callbacks run on the
/// loop thread, never concurrently.  `stop()` is safe from any callback.

#include <cstdint>
#include <functional>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/core/time.hpp"

namespace lamsdlc::rt {

/// The driver interface: a Simulator plus a policy for advancing its clock.
class EventLoop {
 public:
  virtual ~EventLoop() = default;

  /// The timer kernel.  Schedule with `sim().schedule_in(...)` exactly as
  /// simulation code does; under `WallClock`, `sim().now()` tracks the wall.
  [[nodiscard]] virtual Simulator& sim() noexcept = 0;

  /// Current loop time (simulated or wall-anchored, per driver).
  [[nodiscard]] Time now() noexcept { return sim().now(); }

  /// The wall instant on the loop's timeline.  A timer that fires late runs
  /// at its scheduled `now()`, so `wall_now() - now()` is the loop's lateness;
  /// `SimClock` has no wall and answers `now()` (lateness zero).
  [[nodiscard]] virtual Time wall_now() const noexcept = 0;

  /// Dispatch until out of work or `stop()`.  "Out of work" means an empty
  /// timer queue — and, for `WallClock`, no watched fds either.
  virtual void run() = 0;

  /// Halt `run()` after the current callback returns.
  virtual void stop() = 0;

  /// Invoke \p on_readable from `run()` whenever \p fd is readable (or in
  /// error/hup — the handler must read and discover that itself).  One
  /// handler per fd; re-watching replaces it.
  virtual void watch_fd(int fd, std::function<void()> on_readable) = 0;
  virtual void unwatch_fd(int fd) = 0;
};

/// Simulated-time driver: a thin `EventLoop` coat over the existing kernel.
class SimClock final : public EventLoop {
 public:
  SimClock() = default;
  /// Adapt an externally owned Simulator (e.g. a scenario's existing one).
  explicit SimClock(Simulator& external) noexcept : ext_{&external} {}

  [[nodiscard]] Simulator& sim() noexcept override {
    return ext_ != nullptr ? *ext_ : own_;
  }
  [[nodiscard]] Time wall_now() const noexcept override {
    return ext_ != nullptr ? ext_->now() : own_.now();
  }
  void run() override { sim().run(); }
  void stop() override { sim().stop(); }
  [[noreturn]] void watch_fd(int, std::function<void()>) override;
  void unwatch_fd(int) override {}

 private:
  Simulator own_;
  Simulator* ext_ = nullptr;
};

/// Wall-time driver: `ppoll(2)` until the next timer deadline or fd event,
/// then advance the kernel to the current wall instant.  Time zero is the
/// construction instant (CLOCK_MONOTONIC), so `Time` values stay small and
/// the int64-picosecond range (~106 days) is never a concern.
class WallClock final : public EventLoop {
 public:
  WallClock();

  [[nodiscard]] Simulator& sim() noexcept override { return sim_; }
  void run() override;
  void stop() override;
  void watch_fd(int fd, std::function<void()> on_readable) override;
  void unwatch_fd(int fd) override;

  /// Monotonic, zero at construction.  Unlike `now()`, this does not wait
  /// for the kernel to be advanced.
  [[nodiscard]] Time wall_now() const noexcept override;

  /// Observe scheduler lateness: before each kernel advance that will fire
  /// at least one due timer, \p fn receives how far past its deadline the
  /// earliest timer is, in nanoseconds (>= 0).  A healthy loop reports a few
  /// µs (one ppoll wakeup); sustained large values mean a handler is
  /// hogging the loop thread.  One observer; pass nullptr to clear.  Kept a
  /// plain callback so the loop stays free of `obs::` — the daemon adapts
  /// it into a registry histogram.
  void set_tick_observer(std::function<void(std::int64_t lateness_ns)> fn) {
    tick_observer_ = std::move(fn);
  }

 private:
  struct Watch {
    int fd;
    std::function<void()> on_readable;
  };

  Simulator sim_;
  std::vector<Watch> watches_;
  std::function<void(std::int64_t)> tick_observer_;
  std::int64_t t0_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace lamsdlc::rt

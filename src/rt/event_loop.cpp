#include "lamsdlc/rt/event_loop.hpp"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace lamsdlc::rt {

void SimClock::watch_fd(int, std::function<void()>) {
  throw std::logic_error(
      "SimClock::watch_fd: file descriptors need a wall clock; "
      "a simulated run has no sockets");
}

namespace {

std::int64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

WallClock::WallClock() : t0_ns_{monotonic_ns()} {}

Time WallClock::wall_now() const noexcept {
  return Time::nanoseconds(monotonic_ns() - t0_ns_);
}

void WallClock::stop() {
  stopped_ = true;
  sim_.stop();  // halt a run_until() in progress too
}

void WallClock::watch_fd(int fd, std::function<void()> on_readable) {
  for (Watch& w : watches_) {
    if (w.fd == fd) {
      w.on_readable = std::move(on_readable);
      return;
    }
  }
  watches_.push_back(Watch{fd, std::move(on_readable)});
}

void WallClock::unwatch_fd(int fd) {
  std::erase_if(watches_, [fd](const Watch& w) { return w.fd == fd; });
}

void WallClock::run() {
  stopped_ = false;
  std::vector<pollfd> pfds;
  // ppoll the watched fds (null timeout: until one is ready) and run the
  // handler of each ready one.
  const auto dispatch_ready = [this, &pfds](const timespec* timeout) {
    pfds.clear();
    for (const Watch& w : watches_) {
      pfds.push_back(pollfd{w.fd, POLLIN, 0});
    }
    const int rc = ppoll(pfds.data(), pfds.size(), timeout, nullptr);
    if (rc < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error("WallClock::run: ppoll failed");
    }
    // Handlers may watch/unwatch mid-drain; re-resolve each fd against the
    // live watch list and skip ones that vanished.
    for (const pollfd& p : pfds) {
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (stopped_) break;
      const auto it = std::find_if(
          watches_.begin(), watches_.end(),
          [&p](const Watch& w) { return w.fd == p.fd; });
      if (it == watches_.end()) continue;
      // Copy before calling: the handler may watch/unwatch and reallocate
      // the vector out from under the iterator.
      const std::function<void()> fn = it->on_readable;
      if (fn) fn();
    }
  };
  const timespec no_wait{};
  while (!stopped_) {
    // Advance the kernel to the wall: every timer due by now fires, in
    // timestamp order, exactly as it would under simulation.
    const Time now = wall_now();
    const Time due = sim_.next_event_time();
    if (due != Time::max() && due <= now) {
      if (tick_observer_) tick_observer_((now.ps() - due.ps()) / 1'000);
      // Timers are overdue, maybe after a stall (descheduled thread, slow
      // handler), and datagrams may be unread, among them ones sent before
      // the stall.  Read those first: a checkpoint the replay generates must
      // not deny a frame that reached the socket before it.  The price is a
      // zero-timeout ppoll per timer wakeup.
      dispatch_ready(&no_wait);
      if (stopped_) break;
    }
    sim_.run_until(now);
    if (stopped_) break;

    const Time next = sim_.next_event_time();
    if (next == Time::max() && watches_.empty()) break;  // out of work

    // Sleep until the earliest deadline (ns precision via ppoll) or an fd.
    timespec ts{};
    timespec* tsp = nullptr;
    if (next != Time::max()) {
      const std::int64_t wait_ns = std::max<std::int64_t>(
          0, static_cast<std::int64_t>(next.ps() - wall_now().ps()) / 1'000);
      ts.tv_sec = wait_ns / 1'000'000'000;
      ts.tv_nsec = wait_ns % 1'000'000'000;
      tsp = &ts;
    }
    dispatch_ready(tsp);
  }
}

}  // namespace lamsdlc::rt

#pragma once
/// \file bus.hpp
/// \brief Near-zero-overhead dispatch of typed protocol events.
///
/// Instrumented components hold an `EventBus*` and emit `Event`s through it.
/// With no subscriber the cost at every instrumentation site is a single
/// branch (`enabled()` is false and no event is even constructed — sites
/// guard with `Emitter::active()`).  Subscribers are the observability
/// consumers: the metrics collector (`collector.hpp`), a capture writer
/// (`capture.hpp`), a recording vector in a test, or a printer that renders
/// each event with `describe()`.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "lamsdlc/obs/event.hpp"

namespace lamsdlc::obs {

/// Dispatches events to any number of subscribers, in subscription order.
///
/// Subscribing/unsubscribing from inside a callback is not supported (the
/// subscriber list must be stable during `emit`).
class EventBus {
 public:
  using Subscriber = std::function<void(const Event&)>;
  using SubscriptionId = std::uint32_t;

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  SubscriptionId subscribe(Subscriber s) {
    const SubscriptionId id = next_id_++;
    subs_.emplace_back(id, std::move(s));
    return id;
  }

  /// Unknown ids are a harmless no-op (mirrors Simulator::cancel semantics).
  void unsubscribe(SubscriptionId id) {
    for (auto it = subs_.begin(); it != subs_.end(); ++it) {
      if (it->first == id) {
        subs_.erase(it);
        return;
      }
    }
  }

  /// True when at least one subscriber is attached — the one branch
  /// instrumentation sites pay when observability is off.
  [[nodiscard]] bool enabled() const noexcept { return !subs_.empty(); }

  void emit(const Event& e) {
    if (subs_.empty()) return;
    ++emitted_;
    for (auto& [id, sub] : subs_) sub(e);
  }

  /// Events delivered to at least one subscriber (diagnostic).
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

  /// Subscriber that appends every event to \p out (caller keeps it alive).
  [[nodiscard]] static Subscriber record_into(std::vector<Event>& out) {
    return [&out](const Event& e) { out.push_back(e); };
  }

 private:
  std::vector<std::pair<SubscriptionId, Subscriber>> subs_;
  SubscriptionId next_id_{1};
  std::uint64_t emitted_{0};
};

/// Per-component emission handle over an optional shared bus.  Components
/// build an `Event` only when someone is listening (`active()`).
class Emitter {
 public:
  Emitter() = default;
  explicit Emitter(EventBus* bus) : bus_{bus} {}

  [[nodiscard]] bool active() const noexcept {
    return bus_ != nullptr && bus_->enabled();
  }

  void emit(const Event& e) const {
    if (bus_ != nullptr) bus_->emit(e);
  }

 private:
  EventBus* bus_ = nullptr;
};

}  // namespace lamsdlc::obs

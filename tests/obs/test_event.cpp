#include "lamsdlc/obs/event.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lamsdlc/obs/bus.hpp"

namespace lamsdlc::obs {
namespace {

Event frame_event(EventKind k, std::uint64_t ctr) {
  Event e;
  e.at = Time::milliseconds(3);
  e.source = Source::kLamsSender;
  e.kind = k;
  e.p.frame = {ctr, 7, 2, 0, 1500};
  return e;
}

TEST(Event, KindNamesRoundTrip) {
  for (std::uint8_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const auto back = kind_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(kind_from_string("no_such_kind").has_value());
}

TEST(Event, SourceNamesRoundTrip) {
  for (std::uint8_t s = 0; s < kSourceCount; ++s) {
    const auto src = static_cast<Source>(s);
    const auto back = source_from_string(to_string(src));
    ASSERT_TRUE(back.has_value()) << to_string(src);
    EXPECT_EQ(*back, src);
  }
  EXPECT_FALSE(source_from_string("no.such.source").has_value());
}

TEST(Event, EqualityComparesActivePayloadFieldwise) {
  const Event a = frame_event(EventKind::kFrameSent, 10);
  Event b = a;
  EXPECT_TRUE(a == b);

  b.p.frame.attempt = 3;
  EXPECT_FALSE(a == b);

  b = a;
  b.at = Time::milliseconds(4);
  EXPECT_FALSE(a == b);

  b = a;
  b.kind = EventKind::kFrameReceived;  // same payload bytes, different kind
  EXPECT_FALSE(a == b);
}

TEST(Event, CheckpointEqualityIncludesInlineNaks) {
  Event a;
  a.source = Source::kLamsReceiver;
  a.kind = EventKind::kCheckpointEmitted;
  a.p.checkpoint.cp_seq = 5;
  a.p.checkpoint.nak_count = 3;
  a.p.checkpoint.naks = {10, 11, 12, 0, 0, 0, 0, 0};
  Event b = a;
  EXPECT_TRUE(a == b);
  b.p.checkpoint.naks[2] = 99;
  EXPECT_FALSE(a == b);
}

TEST(Event, DescribeAndJsonCoverEveryKind) {
  for (std::uint8_t k = 0; k < kEventKindCount; ++k) {
    Event e;
    e.at = Time::milliseconds(1);
    e.kind = static_cast<EventKind>(k);
    const std::string text = describe(e);
    const std::string js = to_json(e);
    EXPECT_FALSE(text.empty()) << to_string(e.kind);
    EXPECT_EQ(js.front(), '{') << to_string(e.kind);
    EXPECT_EQ(js.back(), '}') << to_string(e.kind);
    EXPECT_NE(js.find(to_string(e.kind)), std::string::npos);
  }
}

TEST(Event, EveryPayloadMemberIsInItsFieldList) {
  // The capture codec and to_json see only what a field list names, so a
  // member left out of its list would silently vanish from captures.  The
  // walkers static_assert this; here the check itself is shown to bite.
  struct Partial {
    std::uint64_t listed = 0;
    std::uint64_t forgotten = 0;
    static constexpr auto fields() {
      return std::tuple{Field{&Partial::listed, "listed", wire::Varint{}}};
    }
  };
  static_assert(!field_list_complete<Partial>());
}

TEST(EventBus, DisabledWithoutSubscribersOneBranch) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.emit(frame_event(EventKind::kFrameSent, 1));  // dropped, not counted
  EXPECT_EQ(bus.emitted(), 0u);
}

TEST(EventBus, DispatchesToAllSubscribersInOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe([&order](const Event&) { order.push_back(1); });
  bus.subscribe([&order](const Event&) { order.push_back(2); });
  EXPECT_TRUE(bus.enabled());
  bus.emit(frame_event(EventKind::kFrameSent, 1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(bus.emitted(), 1u);
}

TEST(EventBus, UnsubscribeStopsDeliveryAndUnknownIdIsNoop) {
  EventBus bus;
  std::vector<Event> seen;
  const auto id = bus.subscribe(EventBus::record_into(seen));
  bus.emit(frame_event(EventKind::kFrameSent, 1));
  bus.unsubscribe(id);
  bus.unsubscribe(9999);  // harmless
  EXPECT_FALSE(bus.enabled());
  bus.emit(frame_event(EventKind::kFrameSent, 2));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].p.frame.ctr, 1u);
}

TEST(Emitter, InactiveWithoutBusOrTracer) {
  Emitter none;
  EXPECT_FALSE(none.active());

  EventBus bus;
  Emitter with_bus{&bus};
  EXPECT_FALSE(with_bus.active());  // bus exists but has no subscriber
  std::vector<Event> seen;
  bus.subscribe(EventBus::record_into(seen));
  EXPECT_TRUE(with_bus.active());
  with_bus.emit(frame_event(EventKind::kFrameSent, 5));
  EXPECT_EQ(seen.size(), 1u);
}

}  // namespace
}  // namespace lamsdlc::obs

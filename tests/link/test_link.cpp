#include "lamsdlc/link/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lamsdlc/frame/codec.hpp"

namespace lamsdlc::link {
namespace {

using namespace lamsdlc::literals;

/// Records every delivered frame with its arrival time.
struct RecordingSink final : FrameSink {
  struct Arrival {
    frame::Frame f;
    Time at;
  };
  explicit RecordingSink(Simulator& sim) : sim{sim} {}
  void on_frame(frame::Frame f) override {
    arrivals.push_back({std::move(f), sim.now()});
  }
  Simulator& sim;
  std::vector<Arrival> arrivals;
};

frame::Frame iframe(std::uint32_t seq, std::uint32_t bytes) {
  frame::Frame f;
  f.body = frame::IFrame{seq, 0, bytes, {}};
  return f;
}

frame::Frame cpframe() {
  frame::Frame f;
  f.body = frame::CheckpointFrame{};
  return f;
}

SimplexChannel::Config cfg_100mbps_5ms() {
  SimplexChannel::Config c;
  c.data_rate_bps = 100e6;
  c.propagation = [](Time) { return 5_ms; };
  return c;
}

TEST(SimplexChannel, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);

  auto f = iframe(1, 1000);
  const Time tx = ch.tx_time(f);
  // 1000B payload + 11B header/FCS = 1011 bytes = 8088 bits at 100 Mbps.
  EXPECT_NEAR(tx.sec(), 8088.0 / 100e6, 1e-12);
  ch.send(std::move(f));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].at, tx + 5_ms);
  EXPECT_FALSE(sink.arrivals[0].f.corrupted);
}

TEST(SimplexChannel, FramesSerializeBackToBackFifo) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);

  const Time tx = ch.tx_time(iframe(0, 1000));
  for (std::uint32_t i = 0; i < 5; ++i) ch.send(iframe(i, 1000));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto& a = sink.arrivals[i];
    EXPECT_EQ(std::get<frame::IFrame>(a.f.body).seq, i);
    EXPECT_EQ(a.at, tx * static_cast<std::int64_t>(i + 1) + 5_ms);
  }
}

TEST(SimplexChannel, BusyUntilTracksSerializer) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  EXPECT_FALSE(ch.busy());
  auto f = iframe(0, 1000);
  const Time tx = ch.tx_time(f);
  ch.send(std::move(f));
  EXPECT_TRUE(ch.busy());
  EXPECT_EQ(ch.busy_until(), tx);
  sim.run();
  EXPECT_FALSE(ch.busy());
}

TEST(SimplexChannel, IdleCallbackFiresWhenQueueDrains) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  int idle_calls = 0;
  ch.set_idle_callback([&] { ++idle_calls; });
  ch.send(iframe(0, 100));
  ch.send(iframe(1, 100));
  sim.run();
  EXPECT_EQ(idle_calls, 1);  // once, when the second frame finishes
}

TEST(SimplexChannel, ErrorModelMarksCorruption) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(),
                    std::make_unique<phy::FixedFrameErrorModel>(
                        1.0, RandomStream{1, "all"})};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_TRUE(sink.arrivals[0].f.corrupted);
  EXPECT_EQ(ch.frames_corrupted(), 1u);
}

TEST(SimplexChannel, ControlErrorModelAppliesOnlyToControlFrames) {
  Simulator sim;
  // Data model never corrupts; control model always does.
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  ch.set_control_error_model(std::make_unique<phy::FixedFrameErrorModel>(
      1.0, RandomStream{1, "ctl"}));
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  ch.send(cpframe());
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_FALSE(sink.arrivals[0].f.corrupted);
  EXPECT_TRUE(sink.arrivals[1].f.corrupted);
}

TEST(SimplexChannel, FecExpandsWireTime) {
  Simulator sim;
  auto cfg = cfg_100mbps_5ms();
  cfg.iframe_fec = phy::FecParams{255, 223, 16, 8, true};
  SimplexChannel coded{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  SimplexChannel plain{sim, cfg_100mbps_5ms(),
                       std::make_unique<phy::PerfectChannel>()};
  const auto f = iframe(0, 1000);
  EXPECT_GT(coded.tx_time(f), plain.tx_time(f));
  // Expansion is at least n/k.
  EXPECT_GE(coded.tx_time(f) / plain.tx_time(f), 255.0 / 223.0 - 1e-9);
}

TEST(SimplexChannel, ControlFecIndependentOfDataFec) {
  Simulator sim;
  auto cfg = cfg_100mbps_5ms();
  cfg.control_fec = phy::FecParams{15, 5, 5, 4, true};  // strong, low rate
  SimplexChannel ch{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  const auto data_tx = ch.tx_time(iframe(0, 100));
  SimplexChannel plain{sim, cfg_100mbps_5ms(),
                       std::make_unique<phy::PerfectChannel>()};
  EXPECT_EQ(data_tx, plain.tx_time(iframe(0, 100)));  // data unaffected
  EXPECT_GT(ch.tx_time(cpframe()), plain.tx_time(cpframe()));
}

TEST(SimplexChannel, DownLinkDropsQueuedAndNewFrames) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 10'000));
  ch.send(iframe(1, 10'000));
  ch.set_up(false);
  ch.send(iframe(2, 100));
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(ch.frames_dropped(), 3u);
}

TEST(SimplexChannel, FramesInFlightAtFailureAreLost) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  obs::EventBus bus;
  std::vector<obs::Event> events;
  bus.subscribe([&events](const obs::Event& e) { events.push_back(e); });
  ch.set_event_bus(&bus, obs::Source::kLinkForward);
  ch.send(iframe(0, 100));
  // Kill the link while the frame is propagating (after tx, before arrival).
  sim.schedule_at(1_ms, [&] { ch.set_up(false); });
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  // The frame is lost on arrival, counted once and reported once.
  EXPECT_EQ(ch.frames_dropped(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kFrameDropped);
  EXPECT_EQ(events[0].p.drop.cause, obs::DropCause::kLinkDown);
  EXPECT_EQ(events[0].at, ch.tx_time(iframe(0, 100)) + 5_ms);
}

TEST(SimplexChannel, RestoredLinkCarriesTrafficAgain) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.set_up(false);
  sim.schedule_at(10_ms, [&] {
    ch.set_up(true);
    ch.send(iframe(7, 100));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(std::get<frame::IFrame>(sink.arrivals[0].f.body).seq, 7u);
}

TEST(SimplexChannel, TimeVaryingPropagation) {
  Simulator sim;
  SimplexChannel::Config cfg;
  cfg.data_rate_bps = 1e9;
  cfg.propagation = [](Time at) {
    // Range opening at 1 ms per 10 ms of elapsed time.
    return 5_ms + Time::picoseconds(at.ps() / 10);
  };
  SimplexChannel ch{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  sim.schedule_at(100_ms, [&] { ch.send(iframe(1, 100)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  const Time d0 = sink.arrivals[0].at;
  const Time d1 = sink.arrivals[1].at - 100_ms;
  EXPECT_GT(d1, d0);  // later send saw a longer path
}

TEST(SimplexChannel, NoSinkCountsDrops) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  ch.send(iframe(0, 100));
  sim.run();
  EXPECT_EQ(ch.frames_dropped(), 1u);
  EXPECT_EQ(ch.frames_sent(), 1u);
}

TEST(FullDuplexLink, DirectionsAreIndependent) {
  Simulator sim;
  FullDuplexLink link{sim,
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>(),
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::FixedFrameErrorModel>(
                          1.0, RandomStream{1, "rev"})};
  RecordingSink fwd_sink{sim}, rev_sink{sim};
  link.forward().set_sink(&fwd_sink);
  link.reverse().set_sink(&rev_sink);
  link.forward().send(iframe(0, 100));
  link.reverse().send(iframe(1, 100));
  sim.run();
  ASSERT_EQ(fwd_sink.arrivals.size(), 1u);
  ASSERT_EQ(rev_sink.arrivals.size(), 1u);
  EXPECT_FALSE(fwd_sink.arrivals[0].f.corrupted);
  EXPECT_TRUE(rev_sink.arrivals[0].f.corrupted);
}

TEST(FullDuplexLink, SetUpTogglesBothDirections) {
  Simulator sim;
  FullDuplexLink link{sim, cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>(),
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>()};
  link.set_up(false);
  EXPECT_FALSE(link.forward().up());
  EXPECT_FALSE(link.reverse().up());
  link.set_up(true);
  EXPECT_TRUE(link.forward().up());
  EXPECT_TRUE(link.reverse().up());
}

}  // namespace
}  // namespace lamsdlc::link

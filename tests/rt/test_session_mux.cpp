/// \file test_session_mux.cpp
/// \brief SessionMux: full LAMS-DLC sessions over a datagram transport.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/session_mux.hpp"
#include "lamsdlc/rt/transport.hpp"

namespace {

using namespace lamsdlc;
using rt::LoopbackTransport;
using rt::PeerId;
using rt::SessionMux;
using rt::SimClock;
using rt::UdpTransport;
using rt::WallClock;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 7 + 13 + salt);
  }
  return v;
}

/// Collects everything one mux delivers, keyed by (peer, sid).
struct Sink {
  std::map<std::uint64_t, std::vector<std::uint8_t>> data;
  std::map<std::uint64_t, bool> clean;

  void attach(SessionMux& mux) {
    mux.set_inbound_data_handler(
        [this](PeerId p, std::uint32_t sid, std::span<const std::uint8_t> b) {
          auto& d = data[key(p, sid)];
          d.insert(d.end(), b.begin(), b.end());
        });
    mux.set_inbound_end_handler(
        [this](PeerId p, std::uint32_t sid, bool c) { clean[key(p, sid)] = c; });
  }

  static std::uint64_t key(PeerId p, std::uint32_t sid) {
    return (static_cast<std::uint64_t>(p) << 32) | sid;
  }
};

SessionMux::Config mux_config() {
  SessionMux::Config mc;
  mc.chunk_bytes = 256;
  mc.max_one_way = Time::microseconds(500);
  return mc;
}

TEST(SessionMux, StreamRoundTripIsByteExact) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb);

  bool closed = false;
  ma.set_stream_state_handler(
      [&](std::uint32_t, lams::SessionSender::State s) {
        if (s == lams::SessionSender::State::kClosed) closed = true;
      });

  const auto payload = pattern(10000);
  ma.open_stream(0, 42);
  ASSERT_TRUE(ma.stream_write(42, payload));
  ma.stream_close(42);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_TRUE(closed);
  ASSERT_TRUE(sink.clean.contains(Sink::key(0, 42)));
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 42)));
  EXPECT_EQ(sink.data.at(Sink::key(0, 42)), payload);
  EXPECT_EQ(mb.inbound_count(), 1u);
  EXPECT_EQ(ma.undecodable(), 0u);
}

TEST(SessionMux, TwoConcurrentStreamsShareOneTransport) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb);

  const auto p1 = pattern(5000, 1);
  const auto p2 = pattern(7000, 2);
  ma.open_stream(0, 1);
  ma.open_stream(0, 2);
  // Interleave writes so both sessions' I-frames mingle on the wire.
  ma.stream_write(1, std::span{p1}.first(2500));
  ma.stream_write(2, std::span{p2}.first(3500));
  ma.stream_write(1, std::span{p1}.subspan(2500));
  ma.stream_write(2, std::span{p2}.subspan(3500));
  ma.stream_close(1);
  ma.stream_close(2);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_EQ(sink.data.at(Sink::key(0, 1)), p1);
  EXPECT_EQ(sink.data.at(Sink::key(0, 2)), p2);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 1)));
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 2)));
  EXPECT_EQ(mb.inbound_count(), 2u);
}

TEST(SessionMux, SameSessionIdInBothDirectionsStaysSeparate) {
  // Both ends initiate a stream with the *same* session id.  The envelope's
  // direction bit must keep the four DLC endpoints apart.
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink_a, sink_b;
  sink_a.attach(ma);
  sink_b.attach(mb);

  const auto pa = pattern(4000, 3);  // a -> b
  const auto pb = pattern(6000, 4);  // b -> a
  ma.open_stream(0, 7);
  mb.open_stream(0, 7);
  ma.stream_write(7, pa);
  mb.stream_write(7, pb);
  ma.stream_close(7);
  mb.stream_close(7);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_EQ(sink_b.data.at(Sink::key(0, 7)), pa);
  EXPECT_EQ(sink_a.data.at(Sink::key(0, 7)), pb);
  EXPECT_TRUE(sink_b.clean.at(Sink::key(0, 7)));
  EXPECT_TRUE(sink_a.clean.at(Sink::key(0, 7)));
}

TEST(SessionMux, RecoversByteExactUnderLossAndCorruption) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));

  phy::FaultInjector::Config fc;
  fc.p_drop = 0.15;
  fc.p_corrupt = 0.10;
  fc.p_duplicate = 0.05;
  phy::FaultInjector injector{fc, RandomStream{11, "mux.fault"}};
  rt::ImpairedTransport wire{loop, *ta, injector,
                             RandomStream{11, "mux.damage"}};

  SessionMux ma{loop, wire, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb);

  bool closed = false;
  ma.set_stream_state_handler(
      [&](std::uint32_t, lams::SessionSender::State s) {
        if (s == lams::SessionSender::State::kClosed) closed = true;
      });

  const auto payload = pattern(20000, 5);
  ma.open_stream(0, 9);
  ma.stream_write(9, payload);
  ma.stream_close(9);
  loop.sim().run_until(Time::seconds(120));

  EXPECT_TRUE(closed);
  EXPECT_GT(wire.dropped() + wire.damaged(), 0u) << "impairment was a no-op";
  ASSERT_TRUE(sink.data.contains(Sink::key(0, 9)));
  EXPECT_EQ(sink.data.at(Sink::key(0, 9)), payload);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 9)));
  // Damaged datagrams surface as undecodable at the far mux (FCS / envelope
  // length check), not as delivered garbage.
  EXPECT_EQ(sink.data.at(Sink::key(0, 9)).size(), payload.size());
}

TEST(SessionMux, RefusesInboundWhenNotAccepting) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux::Config closed_cfg = mux_config();
  closed_cfg.accept_inbound = false;
  SessionMux mb{loop, *tb, closed_cfg};

  ma.open_stream(0, 3);
  ma.stream_write(3, pattern(512));
  ma.stream_close(3);
  // The sender retries INIT for a while; cap the run instead of waiting out
  // the whole failure path.
  loop.sim().run_until(Time::seconds(2));

  EXPECT_EQ(mb.inbound_count(), 0u);
  EXPECT_GT(mb.unroutable(), 0u);
}

TEST(SessionMux, PeerRestartWithLowEpochReplacesClosedReceiver) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb);

  const auto round1 = pattern(1000, 6);
  {
    SessionMux ma{loop, *ta, mux_config()};
    ma.open_stream(0, 5);
    ma.stream_write(5, round1);
    ma.stream_close(5);
    loop.sim().run_until(Time::seconds(10));
    ASSERT_EQ(sink.data.at(Sink::key(0, 5)), round1);
  }

  // "Restart": a fresh mux reuses session id 5 from epoch 1.  The receiver
  // side must tear down the stale closed state and accept the new INIT.
  const auto round2 = pattern(1500, 7);
  SessionMux ma2{loop, *ta, mux_config()};
  ma2.open_stream(0, 5);
  ma2.stream_write(5, round2);
  ma2.stream_close(5);
  loop.sim().run_until(Time::seconds(20));

  // The sink accumulates: round1 then round2 on the same (peer, sid) key.
  auto expect = round1;
  expect.insert(expect.end(), round2.begin(), round2.end());
  EXPECT_EQ(sink.data.at(Sink::key(0, 5)), expect);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 5)));
}

// Configs the live loop cannot run are refused up front: a zero chunk size
// never finishes segmenting, a rate that is not positive and finite makes
// every serialization time infinite, and a zero checkpoint interval
// reschedules the receiver cadence at the same instant forever.
TEST(SessionMux, RejectsConfigsTheLoopCannotRun) {
  SimClock loop;
  auto transports =
      LoopbackTransport::make_pair(loop, Time::microseconds(100));
  rt::Transport& t = *transports.first;

  SessionMux::Config zero_chunk = mux_config();
  zero_chunk.chunk_bytes = 0;
  EXPECT_THROW((SessionMux{loop, t, zero_chunk}), std::invalid_argument);

  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::nan("")}) {
    SessionMux::Config bad_rate = mux_config();
    bad_rate.data_rate_bps = rate;
    EXPECT_THROW((SessionMux{loop, t, bad_rate}), std::invalid_argument)
        << rate;
  }

  SessionMux::Config zero_cadence = mux_config();
  zero_cadence.session.lams.checkpoint_interval = Time{};
  EXPECT_THROW((SessionMux{loop, t, zero_cadence}), std::invalid_argument);

  EXPECT_NO_THROW((SessionMux{loop, t, mux_config()}));
}

// A WallClock loop that stalls (thread descheduled, slow handler) replays
// every overdue timer at its scheduled instant.  Two stalls, each past
// ~2·max_one_way (10 ms here) and well short of the C_depth·W_cp = 40 ms of
// checkpoint silence that would start a Request-NAK, must cost no
// retransmission over lossless loopback:
//  - A: the stall is the first timer of a loop pass, right after the
//    receiver drained its socket, like a late ppoll wakeup.  Serializer
//    timers in the replay send frames at the wall instant; dated at their
//    scheduled instant, those frames looked provably undelivered to a
//    checkpoint generated in the same replay.
//  - B: an fd handler sends a frame and then stalls.  Unless the loop reads
//    its sockets before the replay, the checkpoints the replay generates
//    have not read that frame either.
TEST(SessionMux, LoopStallsRetransmitNothingOverLosslessUdp) {
  WallClock loop;
  UdpTransport ua{loop, {}};
  UdpTransport ub{loop, {}};
  const PeerId to_b = ua.add_peer("127.0.0.1", ub.local_port());

  SessionMux::Config mc;  // max_one_way 5 ms, W_cp 5 ms
  mc.data_rate_bps = 100e6;
  mc.session.lams.cumulation_depth = 8;
  SessionMux ma{loop, ua, mc};
  SessionMux mb{loop, ub, mc};

  const auto stall = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  };
  const auto payload = pattern(1 << 20);
  const std::size_t half = payload.size() / 2;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  int stalls = 0;
  loop.watch_fd(pipe_fds[0], [&] {
    char c;
    ASSERT_EQ(::read(pipe_fds[0], &c, 1), 1);
    loop.unwatch_fd(pipe_fds[0]);
    // Stall B: the sender is idle, so this write sends a frame at once.
    ma.stream_write(9, std::span{payload}.subspan(half));
    ma.stream_close(9);
    ++stalls;
    stall();
  });

  std::vector<std::uint8_t> got;
  bool ended = false;
  bool clean = false;
  bool closed = false;
  auto maybe_stop = [&] {
    if (ended && closed) loop.stop();
  };
  mb.set_inbound_data_handler(
      [&](PeerId, std::uint32_t, std::span<const std::uint8_t> b) {
        const std::size_t before = got.size();
        got.insert(got.end(), b.begin(), b.end());
        if (before < half / 2 && got.size() >= half / 2) {
          // Stall A, mid-way through the first half.
          loop.sim().schedule_in(Time{}, [&] {
            ++stalls;
            stall();
          });
        }
        if (before < half && got.size() >= half) {
          // The first half is in; once the sender has gone idle, poke the
          // pipe so that its handler starts the second half.
          loop.sim().schedule_in(Time::milliseconds(20), [&] {
            ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
          });
        }
      });
  mb.set_inbound_end_handler([&](PeerId, std::uint32_t, bool c) {
    ended = true;
    clean = c;
    maybe_stop();
  });
  ma.set_stream_state_handler(
      [&](std::uint32_t, lams::SessionSender::State st) {
        if (st == lams::SessionSender::State::kClosed) {
          closed = true;
          maybe_stop();
        }
      });

  ma.open_stream(to_b, 9);
  ma.stream_write(9, std::span{payload}.first(half));
  loop.sim().schedule_in(Time::seconds(10), [&] { loop.stop(); });  // watchdog
  loop.run();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  EXPECT_EQ(stalls, 2);
  EXPECT_TRUE(closed);
  EXPECT_TRUE(clean);
  EXPECT_EQ(got, payload);
  ASSERT_NE(ma.stream_stats(9), nullptr);
  EXPECT_EQ(ma.stream_stats(9)->iframe_retx, 0u);
}

}  // namespace

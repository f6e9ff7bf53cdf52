#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lamsdlc/lams/receiver.hpp"
#include "lamsdlc/lams/sender.hpp"
#include "lamsdlc/obs/bus.hpp"

namespace lamsdlc::lams {
namespace {

using namespace lamsdlc::literals;

/// Regression tests for the sequence-space bugs the verification harness
/// (PR 4) flushed out.  Every scenario here is the unit-level distillation
/// of a failing `lamsdlc_cli verify` seed: tiny numbering sizes where a
/// wrapped reference that drifts half the modulus from its reader's
/// reference aliases onto a live counter.

LamsConfig tiny_config(std::uint32_t modulus) {
  LamsConfig cfg;
  cfg.modulus = modulus;
  cfg.checkpoint_interval = 5_ms;
  cfg.cumulation_depth = 3;
  cfg.t_proc = 10_us;
  cfg.max_rtt = 12_ms;
  cfg.release_margin = 50_us;
  return cfg;
}

link::SimplexChannel::Config zero_delay_config() {
  link::SimplexChannel::Config c;
  c.data_rate_bps = 1e9;
  c.propagation = [](Time) { return Time{}; };
  return c;
}

link::SimplexChannel::Config slow_config() {
  link::SimplexChannel::Config c;
  c.data_rate_bps = 100e6;
  c.propagation = [](Time) { return 5_ms; };
  return c;
}

struct CaptureSink final : link::FrameSink {
  void on_frame(frame::Frame f) override { frames.push_back(std::move(f)); }
  std::vector<frame::Frame> frames;
};

struct CountListener final : sim::PacketListener {
  void on_packet(const sim::Packet&, Time) override { ++delivered; }
  int delivered = 0;
};

struct ReceiverRig {
  explicit ReceiverRig(std::uint32_t modulus,
                       LamsConfig cfg_override = LamsConfig{.modulus = 0})
      : channel{sim, zero_delay_config(),
                std::make_unique<phy::PerfectChannel>()},
        rx{sim, channel,
           cfg_override.modulus != 0 ? cfg_override : tiny_config(modulus),
           &listener, &stats, &bus} {
    channel.set_sink(&capture);
    rx.start();
  }

  void arrive(frame::Seq seq, bool corrupted = false,
              frame::PacketId id = 1) {
    frame::Frame f;
    f.body = frame::IFrame{seq, id, 1024, {}};
    f.corrupted = corrupted;
    rx.on_frame(std::move(f));
  }

  void request_nak() {
    frame::Frame f;
    f.body = frame::RequestNakFrame{1};
    rx.on_frame(std::move(f));
  }

  std::vector<frame::CheckpointFrame> checkpoints() {
    std::vector<frame::CheckpointFrame> out;
    for (const auto& f : capture.frames) {
      if (const auto* c = std::get_if<frame::CheckpointFrame>(&f.body)) {
        out.push_back(*c);
      }
    }
    return out;
  }

  Simulator sim;
  sim::DlcStats stats;
  obs::EventBus bus;
  CaptureSink capture;
  link::SimplexChannel channel;
  CountListener listener;
  LamsReceiver rx;
};

// ----------------------------------------------------- wire-safety prune --

// `lamsdlc_cli verify --repro --seed 8 --modulus 16 --cdepth 1 --packets 76
// --no-faults ...` delivered packet 65 twice: the Enforced-NAK history kept
// a record for a counter 16 behind the receiver's highest, whose wrapped
// value the sender unwrapped one full cycle forward — exactly onto the
// packet's fresh retransmission, still in flight.  A NAK that has fallen
// modulus/2 behind the highest accepted counter is inexpressible on the
// wire and must be suppressed at emission.
TEST(ReceiverWireSafety, EnforcedHistoryDropsInexpressibleRecords) {
  ReceiverRig rig{16};
  rig.arrive(0);
  rig.arrive(2);  // ctr 1 missing -> NAK recorded
  // Advance the highest accepted counter to 9: distance to the record is
  // 8 == modulus/2, one past the last expressible value.
  for (frame::Seq s = 3; s <= 9; ++s) rig.arrive(s);
  rig.request_nak();
  rig.sim.run_until(1_ms);  // let the Enforced-NAK cross the channel
  const auto cps = rig.checkpoints();
  ASSERT_FALSE(cps.empty());
  const auto& enforced = cps.back();
  EXPECT_TRUE(enforced.enforced);
  EXPECT_TRUE(enforced.naks.empty());
  EXPECT_GE(rig.rx.naks_expired(), 1u);
}

TEST(ReceiverWireSafety, ExpressibleRecordsSurviveThePrune) {
  ReceiverRig rig{16};
  rig.arrive(0);
  rig.arrive(2);  // NAK ctr 1
  // Highest 8: the record sits at distance 7 < modulus/2 — still lawful.
  for (frame::Seq s = 3; s <= 8; ++s) rig.arrive(s);
  rig.request_nak();
  rig.sim.run_until(1_ms);
  const auto cps = rig.checkpoints();
  ASSERT_FALSE(cps.empty());
  const auto& enforced = cps.back();
  EXPECT_TRUE(enforced.enforced);
  EXPECT_EQ(enforced.naks, (std::vector<frame::Seq>{1}));
  EXPECT_EQ(rig.rx.naks_expired(), 0u);
}

TEST(ReceiverWireSafety, PeriodicCumulativeListIsFilteredToo) {
  ReceiverRig rig{16};
  rig.arrive(0);
  rig.arrive(2);  // NAK ctr 1 enters the current detection interval
  for (frame::Seq s = 3; s <= 9; ++s) rig.arrive(s);
  rig.sim.run_until(6_ms);  // first periodic checkpoint at 5 ms
  const auto cps = rig.checkpoints();
  ASSERT_FALSE(cps.empty());
  EXPECT_TRUE(cps.front().naks.empty());
  EXPECT_GE(rig.rx.naks_expired(), 1u);
}

TEST(ReceiverWireSafety, TinyHistoryHorizonStillCoversCumulativeWindow) {
  // A configured retention horizon below (C_depth+1)·W_cp must not let the
  // Enforced-NAK forget a record the periodic checkpoints still repeat.
  LamsConfig cfg = tiny_config(16);
  cfg.nak_history_horizon = 1_us;
  ReceiverRig rig{16, cfg};
  rig.arrive(0);
  rig.arrive(2);  // NAK ctr 1
  rig.sim.run_until(7_ms);  // one checkpoint interval later: still repeating
  rig.request_nak();
  rig.sim.run_until(8_ms);
  const auto cps = rig.checkpoints();
  ASSERT_FALSE(cps.empty());
  const auto& enforced = cps.back();
  ASSERT_TRUE(enforced.enforced);
  EXPECT_EQ(enforced.naks, (std::vector<frame::Seq>{1}));
}

// -------------------------------------------------- husk-burst anchoring --

// At modulus 8, a burst of 10 corrupted arrivals spans more than a full
// numbering cycle.  Unwrapping the next good frame near the stale highest
// aliases its counter a cycle low: the receiver under-NAKs the gap and the
// sender releases the husks as implicitly acknowledged — silent loss.  The
// arrival-event count carries the cycle through the burst (damage is
// detectable, so every husk still left an arrival event).
TEST(ReceiverAnchoring, HuskBurstLongerThanOneCycleKeepsTheCount) {
  ReceiverRig rig{8};
  rig.arrive(0, false, 1);                            // ctr 0 accepted
  for (int i = 0; i < 10; ++i) rig.arrive(0, true);   // ctrs 1..10 as husks
  rig.arrive(3, false, 12);                           // ctr 11, wire 11%8=3
  EXPECT_EQ(rig.rx.naks_generated(), 10u);
  EXPECT_EQ(rig.rx.duplicates_suppressed(), 0u);
  rig.sim.run_until(1_ms);
  EXPECT_EQ(rig.listener.delivered, 2);
  rig.sim.run_until(6_ms);
  const auto cp = rig.checkpoints().back();
  EXPECT_TRUE(cp.any_seen);
  EXPECT_EQ(cp.highest_seen, 3u);  // wrap(11)
}

TEST(ReceiverAnchoring, FirstGoodFrameAfterHusksAnchorsOnArrivalCount) {
  // The very first readable frame of a session used to trust its raw wire
  // value; nine husks ahead of it mean its true counter is 9 (wire 1).
  ReceiverRig rig{8};
  for (int i = 0; i < 9; ++i) rig.arrive(0, true);  // ctrs 0..8 as husks
  rig.arrive(1, false, 10);                         // ctr 9, wire 9%8=1
  EXPECT_EQ(rig.rx.naks_generated(), 9u);
  rig.sim.run_until(6_ms);
  const auto cp = rig.checkpoints().back();
  EXPECT_TRUE(cp.any_seen);
  EXPECT_EQ(cp.highest_seen, 1u);  // wrap(9)
}

// ------------------------------------------------ obs inline-NAK bounds --

// The checkpoint event payload inlines the first kMaxInlineNaks entries of
// the cumulative list and saturates nak_count at 0xFFFF.  Audit the copy
// loop at the boundaries (ASan in the sanitized suite turns any overrun
// into a hard failure): empty list, exactly the inline capacity, and a
// list past the uint16 saturation point.
TEST(ReceiverObsBounds, CheckpointInlineNakCopyStaysInBounds) {
  LamsConfig cfg = tiny_config(1u << 20);  // half-window above the u16 cap
  std::vector<obs::CheckpointPayload> seen;
  ReceiverRig rig{1u << 20, cfg};
  rig.bus.subscribe([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kCheckpointEmitted) {
      seen.push_back(e.p.checkpoint);
    }
  });

  rig.arrive(0);
  rig.request_nak();  // empty history
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].nak_count, 0u);
  EXPECT_EQ(seen[0].inline_naks(), 0u);

  rig.arrive(1 + obs::kMaxInlineNaks);  // exactly kMaxInlineNaks missing
  rig.request_nak();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].nak_count, obs::kMaxInlineNaks);
  EXPECT_EQ(seen[1].inline_naks(), obs::kMaxInlineNaks);
  for (std::size_t i = 0; i < obs::kMaxInlineNaks; ++i) {
    EXPECT_EQ(seen[1].naks[i], 1 + i);
  }

  rig.arrive(72000);  // gap of ~70k counters: past the u16 saturation
  rig.request_nak();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2].nak_count, 0xFFFFu);
  EXPECT_EQ(seen[2].inline_naks(), obs::kMaxInlineNaks);
}

// --------------------------------------------------------- sender guards --

struct SenderRig {
  explicit SenderRig(std::uint32_t modulus)
      : channel{sim, slow_config(), std::make_unique<phy::PerfectChannel>()},
        tx{sim, channel, tiny_config(modulus), &stats} {
    channel.set_sink(&capture);
  }

  void submit(frame::PacketId id) {
    sim::Packet p;
    p.id = id;
    p.bytes = 1024;
    tx.submit(p);
  }

  void deliver_cp(std::uint32_t cp_seq, bool any_seen, frame::Seq highest,
                  std::vector<frame::Seq> naks = {}) {
    frame::CheckpointFrame c;
    c.cp_seq = cp_seq;
    c.generated_at = sim.now();
    c.any_seen = any_seen;
    c.highest_seen = highest;
    c.naks = std::move(naks);
    frame::Frame f;
    f.body = std::move(c);
    tx.on_frame(std::move(f));
  }

  Simulator sim;
  sim::DlcStats stats;
  CaptureSink capture;
  link::SimplexChannel channel;
  LamsSender tx;
};

// A checkpoint whose highest-seen unwraps above the newest issued counter
// is stale by more than half the numbering size (a long all-husk burst kept
// the receiver's highest pinned while next_ctr advanced).  Releasing
// against it would discard undelivered frames as implicitly acknowledged.
TEST(SenderGuards, ImplausibleHighestSeenNeverReleases) {
  SenderRig rig{8};
  for (frame::PacketId id = 1; id <= 3; ++id) rig.submit(id);
  rig.sim.run_until(10_ms);  // ctrs 0..2 sent and long since arrived
  // highest_seen 5 unwraps near next_ctr-1 == 2 to counter 5 — never
  // issued.  The release rule must stand down; the reference-free
  // provably-undelivered rule still claims all three for retransmission.
  rig.deliver_cp(1, /*any_seen=*/true, /*highest=*/5);
  EXPECT_EQ(rig.tx.packets_resolved(), 0u);
  rig.sim.run_until(20_ms);
  EXPECT_EQ(rig.stats.iframe_retx, 3u);
}

// The numbering-window stall: at modulus 8 the sender may hold at most 4
// unresolved frames.  With no checkpoints arriving, issuance must stop
// there instead of pushing the wrapped references into ambiguity (found as
// "transparent-buffer bound exceeded" by the 200-seed verify sweep).
TEST(SenderGuards, IssuanceStallsAtHalfTheNumberingSize) {
  SenderRig rig{8};
  for (frame::PacketId id = 1; id <= 10; ++id) rig.submit(id);
  rig.sim.run_until(10_ms);
  EXPECT_EQ(rig.stats.iframe_tx, 4u);
  EXPECT_EQ(rig.tx.sending_buffer_depth(), 10u);  // nothing lost, 6 queued

  // A checkpoint covering ctrs 0..1 releases two slots; the provably
  // undelivered ctrs 2..3 move to the retransmission queue (still counted
  // against the window), so exactly two new frames go out.
  rig.deliver_cp(1, /*any_seen=*/true, /*highest=*/1);
  EXPECT_EQ(rig.tx.packets_resolved(), 2u);
  rig.sim.run_until(20_ms);
  EXPECT_EQ(rig.stats.iframe_tx, 8u);  // 4 initial + 2 retx + 2 new
}

}  // namespace
}  // namespace lamsdlc::lams

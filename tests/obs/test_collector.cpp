#include "lamsdlc/obs/collector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace lamsdlc::obs {
namespace {

/// The acceptance-criterion cross-check: the registry's retransmission
/// counter must match counts derived independently of the collector — the
/// sender's own DlcStats accumulator and a raw recount of the event stream.
TEST(Collector, RetransmissionCounterMatchesIndependentCounts) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 3;
  cfg.metrics = true;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = 0.12;
  cfg.forward_error.p_control = 0.03;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};

  std::vector<Event> raw;
  s.events().subscribe(EventBus::record_into(raw));

  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 400,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(60)));

  std::uint64_t retx_from_events = 0, tx_from_events = 0;
  for (const Event& e : raw) {
    if (e.source != Source::kLamsSender || e.kind != EventKind::kFrameSent ||
        e.p.frame.control != 0) {
      continue;
    }
    ++tx_from_events;
    if (e.p.frame.attempt > 1) ++retx_from_events;
  }
  ASSERT_GT(retx_from_events, 0u) << "faulty run produced no retransmissions";

  Registry& reg = s.metrics();
  EXPECT_EQ(reg.counter_value("lams.sender.iframe_retx"), retx_from_events);
  EXPECT_EQ(reg.counter_value("lams.sender.iframe_retx"), s.stats().iframe_retx);
  EXPECT_EQ(reg.counter_value("lams.sender.iframe_tx"), tx_from_events);
  EXPECT_EQ(reg.counter_value("lams.sender.iframe_tx"), s.stats().iframe_tx);
}

TEST(Collector, ReceiverAndLinkCountersMatchComponentAccumulators) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 11;
  cfg.metrics = true;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = 0.10;
  cfg.forward_error.p_control = 0.05;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 300,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(60)));

  Registry& reg = s.metrics();
  EXPECT_EQ(reg.counter_value("link.forward.wire_corrupted") +
                reg.counter_value("link.reverse.wire_corrupted"),
            s.link().forward().frames_corrupted() +
                s.link().reverse().frames_corrupted());
  EXPECT_EQ(reg.counter_value("lams.receiver.naks_generated"),
            s.lams_receiver()->naks_generated());
  EXPECT_EQ(reg.counter_value("lams.receiver.duplicates_suppressed"),
            s.lams_receiver()->duplicates_suppressed());
  EXPECT_EQ(reg.counter_value("lams.receiver.checkpoints_emitted"),
            s.lams_receiver()->checkpoints_sent());
  EXPECT_EQ(reg.counter_value("lams.sender.frames_released"), 300u);
}

TEST(Collector, HistogramsCaptureHoldingTimeAndCheckpointRtt) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 5;
  cfg.metrics = true;
  sim::Scenario s{cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 100,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(30)));

  Registry& reg = s.metrics();
  const LogHistogram* hold = reg.find_histogram("lams.sender.holding_time_ms");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 100u);
  // Holding time is at least one round trip (2 x 10ms propagation).
  EXPECT_GE(hold->p50(), 20.0);
  EXPECT_NEAR(hold->mean(), s.stats().holding_time_s.mean() * 1e3, 1e-6);

  const LogHistogram* rtt = reg.find_histogram("lams.sender.checkpoint_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count(), 0u);
  // Checkpoint RTT ~ one-way propagation (10ms) + serialization.
  EXPECT_GE(rtt->min(), 10.0);
  EXPECT_LT(rtt->max(), 100.0);

  const LogHistogram* depth = reg.find_histogram("lams.sender.send_buffer_depth_hist");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count(), 0u);
}

TEST(Collector, DetachedOnDestructionLeavesBusUsable) {
  EventBus bus;
  Registry reg;
  {
    MetricsCollector col{bus, reg};
    EXPECT_TRUE(bus.enabled());
    Event e;
    e.source = Source::kLamsReceiver;
    e.kind = EventKind::kNakGenerated;
    e.p.nak = {4};
    bus.emit(e);
  }
  EXPECT_FALSE(bus.enabled());
  EXPECT_EQ(reg.counter_value("lams.receiver.naks_generated"), 1u);
}

/// One event of the fixed script below.
Event make(double at_ms, Source src, EventKind kind) {
  Event e;
  e.at = Time::seconds(at_ms * 1e-3);
  e.source = src;
  e.kind = kind;
  return e;
}

/// Every event kind the collector folds, with an out-of-range timer and
/// source among them, in one fixed order.
std::vector<Event> fixed_script() {
  std::vector<Event> v;
  Event e = make(1, Source::kLamsSender, EventKind::kFrameSent);
  e.p.frame.attempt = 1;
  v.push_back(e);
  e.p.frame.attempt = 2;
  v.push_back(e);
  e.p.frame.control = 1;
  v.push_back(e);
  e = make(2, Source::kLamsReceiver, EventKind::kFrameReceived);
  v.push_back(e);
  e.p.frame.control = 1;
  v.push_back(e);
  e = make(3, Source::kLamsSender, EventKind::kFrameReleased);
  e.p.frame.holding_ps = Time::milliseconds(25).ps();
  v.push_back(e);
  v.push_back(make(3, Source::kLamsSender, EventKind::kRetransmitQueued));
  e = make(4, Source::kLinkForward, EventKind::kFrameCorrupted);
  e.p.drop.cause = DropCause::kWireCorruption;
  v.push_back(e);
  e = make(4, Source::kLinkReverse, EventKind::kFrameDropped);
  e.p.drop.cause = DropCause::kLinkDown;
  v.push_back(e);
  e = make(4, Source::kLamsReceiver, EventKind::kFrameDropped);
  e.p.drop.cause = DropCause::kStaleSequence;
  v.push_back(e);
  e = make(10, Source::kLamsReceiver, EventKind::kCheckpointEmitted);
  e.p.checkpoint.cp_seq = 1;
  e.p.checkpoint.flags = 2;  // enforced
  v.push_back(e);
  e = make(15, Source::kLamsReceiver, EventKind::kCheckpointEmitted);
  e.p.checkpoint.cp_seq = 2;
  v.push_back(e);
  e = make(27, Source::kLamsSender, EventKind::kCheckpointProcessed);
  e.p.checkpoint.cp_seq = 2;
  e.p.checkpoint.missed = 1;
  v.push_back(e);
  v.push_back(make(28, Source::kLamsReceiver, EventKind::kNakGenerated));
  e = make(29, Source::kLamsSender, EventKind::kBufferOccupancy);
  e.p.buffer = {BufferId::kSendBuffer, 3};
  v.push_back(e);
  e = make(29, Source::kLamsReceiver, EventKind::kBufferOccupancy);
  e.p.buffer = {BufferId::kRecvBuffer, 7};
  v.push_back(e);
  e = make(30, Source::kLamsSender, EventKind::kTimerArmed);
  e.p.timer.timer = TimerId::kCheckpointTimer;
  v.push_back(e);
  e = make(31, Source::kLamsSender, EventKind::kTimerFired);
  e.p.timer.timer = TimerId::kFailureTimer;
  v.push_back(e);
  e = make(31, Source::kLamsReceiver, EventKind::kTimerArmed);
  e.p.timer.timer = static_cast<TimerId>(200);
  v.push_back(e);
  e = make(40, Source::kLamsSender, EventKind::kRecoveryTransition);
  e.p.recovery = {SenderMode::kNormal, SenderMode::kEnforcedRecovery,
                  RecoveryReason::kCheckpointSilence};
  v.push_back(e);
  e.p.recovery = {SenderMode::kEnforcedRecovery, SenderMode::kFailed,
                  RecoveryReason::kFailureTimeout};
  v.push_back(e);
  v.push_back(make(41, Source::kLamsSender, EventKind::kRetransmitMapped));
  v.push_back(make(41, Source::kLamsSender, EventKind::kPacketAdmitted));
  v.push_back(make(42, Source::kLamsReceiver, EventKind::kPacketDelivered));
  v.push_back(make(42, Source::kOther, EventKind::kMetricSample));
  e = make(43, Source::kLamsReceiver, EventKind::kSelfAuditFailed);
  e.p.audit.check = AuditCheck::kReceiverHuskStall;
  v.push_back(e);
  v.push_back(make(44, Source::kOther, EventKind::kStateCorrupted));
  e = make(100, Source::kLamsSender, EventKind::kResyncInitiated);
  e.p.resync.token = 5;
  v.push_back(e);
  e.at = Time::milliseconds(110);
  e.source = Source::kLamsReceiver;
  e.kind = EventKind::kResyncCompleted;
  v.push_back(e);
  e.at = Time::milliseconds(130);
  e.source = Source::kLamsSender;
  v.push_back(e);
  v.push_back(make(131, static_cast<Source>(9), EventKind::kNakGenerated));
  return v;
}

// Pins every metric name the collector creates, and that it creates them
// lazily: only what the script's events touch exists.
TEST(Collector, FixedScriptYieldsPinnedRegistryJson) {
  EventBus bus;
  Registry reg;
  MetricsCollector col{bus, reg};
  for (const Event& e : fixed_script()) bus.emit(e);
  EXPECT_EQ(
      reg.json(),
      "{\"counters\":{"
      "\"lams.receiver.checkpoints_emitted\":2,"
      "\"lams.receiver.control_rx\":1,"
      "\"lams.receiver.duplicates_suppressed\":1,"
      "\"lams.receiver.enforced_naks_emitted\":1,"
      "\"lams.receiver.iframe_rx\":1,"
      "\"lams.receiver.naks_generated\":1,"
      "\"lams.receiver.packets_delivered\":1,"
      "\"lams.receiver.resyncs_completed\":1,"
      "\"lams.receiver.self_audit.receiver_husk_stall\":1,"
      "\"lams.receiver.self_audit_failed\":1,"
      "\"lams.receiver.timer_armed.unknown\":1,"
      "\"lams.sender.checkpoints_missed\":1,"
      "\"lams.sender.checkpoints_processed\":1,"
      "\"lams.sender.control_tx\":1,"
      "\"lams.sender.enforced_recoveries\":1,"
      "\"lams.sender.failures\":1,"
      "\"lams.sender.frames_released\":1,"
      "\"lams.sender.iframe_retx\":1,"
      "\"lams.sender.iframe_tx\":2,"
      "\"lams.sender.packets_admitted\":1,"
      "\"lams.sender.recovery.checkpoint_silence\":1,"
      "\"lams.sender.recovery.failure_timeout\":1,"
      "\"lams.sender.resyncs_completed\":1,"
      "\"lams.sender.resyncs_initiated\":1,"
      "\"lams.sender.retransmits_mapped\":1,"
      "\"lams.sender.retransmits_queued\":1,"
      "\"lams.sender.timer_armed.checkpoint_timer\":1,"
      "\"lams.sender.timer_fired.failure_timer\":1,"
      "\"link.forward.wire_corrupted\":1,"
      "\"link.reverse.down_dropped\":1,"
      "\"unknown.naks_generated\":1,"
      "\"verif.state_corruptions\":1},"
      "\"gauges\":{"
      "\"lams.receiver.recv_buffer_depth\":7,"
      "\"lams.sender.send_buffer_depth\":3},"
      "\"histograms\":{"
      "\"lams.receiver.recv_buffer_depth_hist\":{\"count\":1,\"min\":7,\"mean\":7,"
      "\"p50\":7,\"p90\":7,\"p99\":7,\"max\":7},"
      "\"lams.sender.checkpoint_rtt_ms\":{\"count\":1,\"min\":12,\"mean\":12,"
      "\"p50\":12,\"p90\":12,\"p99\":12,\"max\":12},"
      "\"lams.sender.holding_time_ms\":{\"count\":1,\"min\":25,\"mean\":25,"
      "\"p50\":25,\"p90\":25,\"p99\":25,\"max\":25},"
      "\"lams.sender.send_buffer_depth_hist\":{\"count\":1,\"min\":3,\"mean\":3,"
      "\"p50\":3,\"p90\":3,\"p99\":3,\"max\":3},"
      "\"recovery.time_ms\":{\"count\":1,\"min\":30,\"mean\":30,"
      "\"p50\":30,\"p90\":30,\"p99\":30,\"max\":30}}}");
}

TEST(Collector, OnlyNakGeneratedCreatesExactlyOneCounter) {
  EventBus bus;
  Registry reg;
  MetricsCollector col{bus, reg};
  bus.emit(make(1, Source::kLamsReceiver, EventKind::kNakGenerated));
  EXPECT_EQ(reg.json(),
            "{\"counters\":{\"lams.receiver.naks_generated\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

// The daemon's shape: one collector per session bus, all folding into one
// registry.  Both count into the same metrics, and each pairs checkpoints
// only with its own bus's (cp_seq values alias across sessions).
TEST(Collector, TwoBusesFeedOneRegistry) {
  Registry one;
  {
    EventBus bus;
    MetricsCollector col{bus, one};
    for (const Event& e : fixed_script()) bus.emit(e);
  }

  Registry shared;
  EventBus bus_a, bus_b;
  MetricsCollector col_a{bus_a, shared};
  MetricsCollector col_b{bus_b, shared};
  for (const Event& e : fixed_script()) {
    bus_a.emit(e);
    bus_b.emit(e);
  }
  ASSERT_EQ(shared.counters().size(), one.counters().size());
  for (const auto& [name, c] : one.counters()) {
    EXPECT_EQ(shared.counter_value(name), 2 * c.value()) << name;
  }
  ASSERT_EQ(shared.histograms().size(), one.histograms().size());
  for (const auto& [name, h] : one.histograms()) {
    const LogHistogram* both = shared.find_histogram(name);
    ASSERT_NE(both, nullptr) << name;
    EXPECT_EQ(both->count(), 2 * h.count()) << name;
    EXPECT_EQ(both->sum(), 2 * h.sum()) << name;
  }

  // Same cp_seq on both buses, emitted and processed at different times.
  Event cp = make(200, Source::kLamsReceiver, EventKind::kCheckpointEmitted);
  cp.p.checkpoint.cp_seq = 50;
  bus_a.emit(cp);
  cp.at = Time::milliseconds(210);
  bus_b.emit(cp);
  cp.source = Source::kLamsSender;
  cp.kind = EventKind::kCheckpointProcessed;
  cp.at = Time::milliseconds(230);
  bus_b.emit(cp);  // 20 ms after bus b's emit
  cp.at = Time::milliseconds(240);
  bus_a.emit(cp);  // 40 ms after bus a's emit
  const LogHistogram* rtt = shared.find_histogram("lams.sender.checkpoint_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count(), 4u);
  EXPECT_DOUBLE_EQ(rtt->max(), 40.0);
  EXPECT_DOUBLE_EQ(rtt->sum(), 12.0 + 12.0 + 20.0 + 40.0);
}

// A receiving daemon's bus never carries kCheckpointProcessed, so nothing
// prunes the pairing map: it must stay capped, evicting the oldest.
TEST(Collector, ReceiverOnlyBusKeepsPendingCheckpointsBounded) {
  EventBus bus;
  Registry reg;
  MetricsCollector col{bus, reg};
  constexpr std::uint32_t kCheckpoints = 100'000;
  Event e = make(0, Source::kLamsReceiver, EventKind::kCheckpointEmitted);
  for (std::uint32_t seq = 0; seq < kCheckpoints; ++seq) {
    e.at = Time::milliseconds(5 * static_cast<std::int64_t>(seq));
    e.p.checkpoint.cp_seq = seq;
    bus.emit(e);
  }
  EXPECT_EQ(reg.counter_value("lams.receiver.checkpoints_emitted"), kCheckpoints);
  EXPECT_EQ(col.pending_checkpoints(), MetricsCollector::kMaxPendingCheckpoints);

  // The newest survive the eviction and still pair.
  e.source = Source::kLamsSender;
  e.kind = EventKind::kCheckpointProcessed;
  e.at += Time::milliseconds(12);
  bus.emit(e);
  const LogHistogram* rtt = reg.find_histogram("lams.sender.checkpoint_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_DOUBLE_EQ(rtt->max(), 12.0);
  EXPECT_EQ(col.pending_checkpoints(), 0u);
}

TEST(Collector, ChaosVerdictCountersComeFromTheRegistry) {
  sim::ChaosKnobs knobs;
  knobs.seed = 7;
  const sim::ChaosVerdict v = sim::run_chaos(knobs);
  EXPECT_TRUE(v.ok) << v.to_string();
  EXPECT_FALSE(v.metrics_json.empty());
  EXPECT_NE(v.metrics_json.find("\"lams.sender.iframe_tx\""), std::string::npos);
  EXPECT_NE(v.metrics_json.find("\"scenario.efficiency\""), std::string::npos);
  EXPECT_GT(v.checkpoints_sent, 0u);
}

}  // namespace
}  // namespace lamsdlc::obs

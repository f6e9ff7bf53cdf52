#include "lamsdlc/obs/capture.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace lamsdlc::obs {
namespace {

/// One event of every kind, with payload fields exercising wide values
/// (large counters, negative deltas are impossible in sim time but zigzag
/// still must handle out-of-order timestamps — covered separately).
std::vector<Event> sample_events() {
  std::vector<Event> evs;
  Time t = Time::milliseconds(1);
  auto base = [&t](Source s, EventKind k) {
    Event e;
    e.at = t;
    t = t + Time::microseconds(137);
    e.source = s;
    e.kind = k;
    return e;
  };

  Event e = base(Source::kLamsSender, EventKind::kFrameSent);
  e.p.frame = {0xFFFFFFFFFFULL, 12345678, 3, 0, 0};
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kFrameReceived);
  e.p.frame = {17, 4, 0, 1, 0};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kFrameReleased);
  e.p.frame = {18, 5, 1, 0, 7'500'000};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kRetransmitQueued);
  e.p.frame = {19, 6, 2, 0, 0};
  evs.push_back(e);

  e = base(Source::kLinkForward, EventKind::kFrameCorrupted);
  e.p.drop = {DropCause::kWireCorruption, 0, 21};
  evs.push_back(e);

  e = base(Source::kLinkForward, EventKind::kFrameDropped);
  e.p.drop = {DropCause::kLinkDown, 1, 0};
  evs.push_back(e);

  e = base(Source::kLinkReverse, EventKind::kFrameDuplicated);
  e.p.drop = {DropCause::kFaultDuplicate, 1, 3};
  evs.push_back(e);

  e = base(Source::kLinkForward, EventKind::kFrameDelayed);
  e.p.drop = {DropCause::kFaultJitter, 0, 44};
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kCheckpointEmitted);
  e.p.checkpoint.cp_seq = 9;
  e.p.checkpoint.highest_seen = 500;
  e.p.checkpoint.nak_count = 12;  // more than kMaxInlineNaks
  e.p.checkpoint.flags = 0x5;
  for (std::size_t i = 0; i < kMaxInlineNaks; ++i) {
    e.p.checkpoint.naks[i] = static_cast<std::uint32_t>(100 + i);
  }
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kCheckpointProcessed);
  e.p.checkpoint.cp_seq = 9;
  e.p.checkpoint.highest_seen = 500;
  e.p.checkpoint.missed = 2;
  e.p.checkpoint.nak_count = 1;
  e.p.checkpoint.flags = 0x1;
  e.p.checkpoint.naks[0] = 77;
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kNakGenerated);
  e.p.nak = {0x1234567890ULL};
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kBufferOccupancy);
  e.p.buffer = {BufferId::kRecvBuffer, 31};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kTimerArmed);
  e.p.timer = {TimerId::kFailureTimer, Time::milliseconds(250).ps()};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kTimerFired);
  e.p.timer = {TimerId::kCheckpointTimer, 0};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kRecoveryTransition);
  e.p.recovery = {SenderMode::kNormal, SenderMode::kEnforcedRecovery,
                  RecoveryReason::kCheckpointSilence};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kRetransmitMapped);
  e.p.map = {0xFFFFFFFF0ULL, 0xFFFFFFFF7ULL, 987654321, 4};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kPacketAdmitted);
  e.p.frame = {0, 424242, 0, 0, 0};
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kPacketDelivered);
  e.p.frame = {91, 424242, 0, 0, 0};
  evs.push_back(e);

  e = base(Source::kOther, EventKind::kMetricSample);
  e.p.sample = MetricSamplePayload{};
  e.p.sample.set_name("lams.sender.iframe_tx");
  e.p.sample.value = -1234.5625;  // exact in binary; sign path covered
  e.p.sample.is_counter = 1;
  evs.push_back(e);

  e = base(Source::kOther, EventKind::kMetricSample);
  e.p.sample = MetricSamplePayload{};
  e.p.sample.set_name(std::string(100, 'x'));  // truncates to kMetricNameCap-1
  e.p.sample.value = 3.25e9;
  e.p.sample.is_counter = 0;
  evs.push_back(e);

  // v3: self-stabilization kinds.
  e = base(Source::kLamsReceiver, EventKind::kSelfAuditFailed);
  e.p.audit = {AuditCheck::kReceiverNakCoherence, 0xFFFFFFFFFULL, 42};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kStateCorrupted);
  e.p.corruption = {10, 1, 0xDEADBEEFULL, 7};
  evs.push_back(e);

  e = base(Source::kLamsSender, EventKind::kResyncInitiated);
  e.p.resync = {0xABCDEF, 3, 2, RecoveryReason::kProgressWatchdog};
  evs.push_back(e);

  e = base(Source::kLamsReceiver, EventKind::kResyncCompleted);
  e.p.resync = {0xABCDEF, 3, 2, RecoveryReason::kResyncRequested};
  evs.push_back(e);

  return evs;
}

TEST(Capture, EveryKindRoundTripsLosslessly) {
  const std::vector<Event> in = sample_events();
  std::stringstream ss;
  CaptureWriter w{ss};
  for (const Event& e : in) w.write(e);
  EXPECT_EQ(w.written(), in.size());

  CaptureReader r{ss};
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.version(), kCaptureVersion);
  std::vector<Event> out;
  while (auto e = r.next()) out.push_back(*e);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(in[i] == out[i]) << "record " << i << ": "
                                 << describe(in[i]) << " vs "
                                 << describe(out[i]);
  }
}

/// A round trip cannot see a layout change that moves encoder and decoder
/// together, so this pins the on-disk bytes and the JSON of every kind.  The
/// literals are what the v3 writer and `to_json` produce for
/// `sample_events()`; a mismatch means the capture format or the JSON schema
/// changed, which needs a version bump (capture) or a docs change (JSON).
TEST(Capture, SampleLayoutIsPinned) {
  // Header, then one record per sample event.
  const char* const kRecordHex[] = {
      "4c444c4341500a0003000000",
      "80a8d6b9070000ffffffffff1fcec2f105030000",
      "80d1d3820101011104000100",
      "80d1d38201000212050100c0c39307",
      "80d1d3820100031306020000",
      "80d1d382010204000015",
      "80d1d382010205050100",
      "80d1d382010306040103",
      "80d1d38201020703002c",
      "80d1d38201010809f403000c056465666768696a6b",
      "80d1d38201000909f4030201014d",
      "80d1d38201010a90f1d9a2a302",
      "80d1d38201010b011f",
      "80d1d38201000c018090cad2c60e",
      "80d1d38201000d0000",
      "80d1d38201000e000100",
      "80d1d38201000ff0ffffffff01f7ffffffff01b1d1f9d60304",
      "80d1d38201001000b2f219000000",
      "80d1d3820101115bb2f219000000",
      "80d1d382010412156c616d732e73656e6465722e696672616d655f7478000000004"
      "04a93c001",
      "80d1d3820104122f787878787878787878787878787878787878787878787878"
      "787878787878787878787878787878787878787878787800000010e236e84100",
      "80d1d38201011307ffffffffff012a",
      "80d1d3820100140a01effdb6f50d07",
      "80d1d382010015ef9baf05030206",
      "80d1d382010116ef9baf05030207",
  };
  const char* const kJson[] = {
      R"({"t_ps":1000000000,"source":"lams.sender","kind":"frame_sent","ctr":1099511627775,"packet_id":12345678,"attempt":3,"control":false,"holding_ps":0})",
      R"({"t_ps":1137000000,"source":"lams.receiver","kind":"frame_received","ctr":17,"packet_id":4,"attempt":0,"control":true,"holding_ps":0})",
      R"({"t_ps":1274000000,"source":"lams.sender","kind":"frame_released","ctr":18,"packet_id":5,"attempt":1,"control":false,"holding_ps":7500000})",
      R"({"t_ps":1411000000,"source":"lams.sender","kind":"retransmit_queued","ctr":19,"packet_id":6,"attempt":2,"control":false,"holding_ps":0})",
      R"({"t_ps":1548000000,"source":"link.forward","kind":"frame_corrupted","cause":"wire_corruption","control":false,"ctr":21})",
      R"({"t_ps":1685000000,"source":"link.forward","kind":"frame_dropped","cause":"link_down","control":true,"ctr":0})",
      R"({"t_ps":1822000000,"source":"link.reverse","kind":"frame_duplicated","cause":"fault_duplicate","control":true,"ctr":3})",
      R"({"t_ps":1959000000,"source":"link.forward","kind":"frame_delayed","cause":"fault_jitter","control":false,"ctr":44})",
      R"({"t_ps":2096000000,"source":"lams.receiver","kind":"checkpoint_emitted","cp_seq":9,"highest_seen":500,"missed":0,"nak_count":12,"any_seen":true,"enforced":false,"stop_go":true,"resync_req":false,"naks":[100,101,102,103,104,105,106,107]})",
      R"({"t_ps":2233000000,"source":"lams.sender","kind":"checkpoint_processed","cp_seq":9,"highest_seen":500,"missed":2,"nak_count":1,"any_seen":true,"enforced":false,"stop_go":false,"resync_req":false,"naks":[77]})",
      R"({"t_ps":2370000000,"source":"lams.receiver","kind":"nak_generated","ctr":78187493520})",
      R"({"t_ps":2507000000,"source":"lams.receiver","kind":"buffer_occupancy","buffer":"recv_buffer","depth":31})",
      R"({"t_ps":2644000000,"source":"lams.sender","kind":"timer_armed","timer":"failure_timer","deadline_ps":250000000000})",
      R"({"t_ps":2781000000,"source":"lams.sender","kind":"timer_fired","timer":"checkpoint_timer","deadline_ps":0})",
      R"({"t_ps":2918000000,"source":"lams.sender","kind":"recovery_transition","from":"normal","to":"enforced_recovery","reason":"checkpoint_silence"})",
      R"({"t_ps":3055000000,"source":"lams.sender","kind":"retransmit_mapped","old_ctr":68719476720,"new_ctr":68719476727,"packet_id":987654321,"attempt":4})",
      R"({"t_ps":3192000000,"source":"lams.sender","kind":"packet_admitted","ctr":0,"packet_id":424242,"attempt":0,"control":false,"holding_ps":0})",
      R"({"t_ps":3329000000,"source":"lams.receiver","kind":"packet_delivered","ctr":91,"packet_id":424242,"attempt":0,"control":false,"holding_ps":0})",
      R"({"t_ps":3466000000,"source":"other","kind":"metric_sample","name":"lams.sender.iframe_tx","value":-1234.56,"is_counter":true})",
      R"({"t_ps":3603000000,"source":"other","kind":"metric_sample","name":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx","value":3.25e+09,"is_counter":false})",
      R"({"t_ps":3740000000,"source":"lams.receiver","kind":"self_audit_failed","check":"receiver_nak_coherence","a":68719476735,"b":42})",
      R"({"t_ps":3877000000,"source":"lams.sender","kind":"state_corrupted","class":10,"target":"receiver","a":3735928559,"b":7})",
      R"({"t_ps":4014000000,"source":"lams.sender","kind":"resync_initiated","token":11259375,"epoch":3,"attempt":2,"reason":"progress_watchdog"})",
      R"({"t_ps":4151000000,"source":"lams.receiver","kind":"resync_completed","token":11259375,"epoch":3,"attempt":2,"reason":"resync_requested"})",
  };
  const std::vector<Event> in = sample_events();
  ASSERT_EQ(std::size(kJson), in.size());
  ASSERT_EQ(std::size(kRecordHex), in.size() + 1);

  auto hex = [](const std::string& bytes, std::size_t from) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = from; i < bytes.size(); ++i) {
      const auto b = static_cast<unsigned char>(bytes[i]);
      out += kDigits[b >> 4];
      out += kDigits[b & 0xF];
    }
    return out;
  };
  std::stringstream ss;
  CaptureWriter w{ss};
  EXPECT_EQ(hex(ss.str(), 0), kRecordHex[0]) << "header";
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t from = ss.str().size();
    w.write(in[i]);
    EXPECT_EQ(hex(ss.str(), from), kRecordHex[i + 1])
        << "record " << i << " (" << to_string(in[i].kind) << ")";
    EXPECT_EQ(to_json(in[i]), kJson[i]) << "record " << i;
  }
}

TEST(Capture, NonMonotoneTimestampsSurviveZigzag) {
  std::vector<Event> in;
  Event e;
  e.kind = EventKind::kNakGenerated;
  e.p.nak = {1};
  e.at = Time::milliseconds(10);
  in.push_back(e);
  e.at = Time::milliseconds(2);  // negative delta
  in.push_back(e);
  e.at = Time::milliseconds(30);
  in.push_back(e);

  std::stringstream ss;
  CaptureWriter w{ss};
  for (const Event& ev : in) w.write(ev);
  const auto out = read_capture(ss);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[1].at, Time::milliseconds(2));
  EXPECT_EQ((*out)[2].at, Time::milliseconds(30));
}

TEST(Capture, EmptyCaptureIsValid) {
  std::stringstream ss;
  CaptureWriter w{ss};
  std::string err;
  const auto out = read_capture(ss, &err);
  ASSERT_TRUE(out.has_value()) << err;
  EXPECT_TRUE(out->empty());
}

TEST(Capture, BadMagicRejected) {
  std::stringstream ss;
  ss << "NOTACAPFILE.....";
  std::string err;
  EXPECT_FALSE(read_capture(ss, &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Capture, UnknownVersionRejected) {
  std::stringstream ss;
  ss.write(reinterpret_cast<const char*>(kCaptureMagic), 8);
  const char v[4] = {kCaptureVersion + 1, 0, 0, 0};  // future version
  ss.write(v, 4);
  std::string err;
  EXPECT_FALSE(read_capture(ss, &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(Capture, OldestReadableVersionAccepted) {
  // A v1 header followed by a v1-era record must still decode; a v1 file
  // claiming a post-v1 kind must not.
  std::stringstream ss;
  ss.write(reinterpret_cast<const char*>(kCaptureMagic), 8);
  const char v1[4] = {1, 0, 0, 0};
  ss.write(v1, 4);
  const char nak_record[] = {0x2, 0x1, 0xA, 0x7};  // delta 1, rx, kNakGenerated, ctr 7
  ss.write(nak_record, sizeof nak_record);
  std::string err;
  const auto out = read_capture(ss, &err);
  ASSERT_TRUE(out.has_value()) << err;
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].kind, EventKind::kNakGenerated);
  EXPECT_EQ((*out)[0].p.nak.ctr, 7u);

  std::stringstream bad;
  bad.write(reinterpret_cast<const char*>(kCaptureMagic), 8);
  bad.write(v1, 4);
  const char v2_kind[] = {0x0, 0x0, 0xF};  // kRetransmitMapped: not in v1
  bad.write(v2_kind, sizeof v2_kind);
  EXPECT_FALSE(read_capture(bad, &err).has_value());
}

TEST(Capture, V2FileClaimingV3KindRejected) {
  // The self-stabilization kinds are v3-only; a v2 file carrying one is
  // corrupt, not forward-compatible.
  std::stringstream bad;
  bad.write(reinterpret_cast<const char*>(kCaptureMagic), 8);
  const char v2[4] = {2, 0, 0, 0};
  bad.write(v2, 4);
  const char v3_kind[] = {0x0, 0x0, 0x13};  // kSelfAuditFailed: not in v2
  bad.write(v3_kind, sizeof v3_kind);
  std::string err;
  EXPECT_FALSE(read_capture(bad, &err).has_value());
}

TEST(Capture, TruncationMidRecordIsAnErrorNotEof) {
  std::stringstream ss;
  CaptureWriter w{ss};
  w.write(sample_events().front());
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 1);  // chop the final payload byte

  std::istringstream cut{bytes};
  CaptureReader r{cut};
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error().empty());
}

TEST(Capture, InvalidKindTagIsAnError) {
  std::stringstream ss;
  CaptureWriter w{ss};
  std::string bytes = ss.str();
  bytes.push_back(0);  // delta 0
  bytes.push_back(0);  // source kLamsSender
  bytes.push_back(static_cast<char>(0xEE));  // no such kind
  std::istringstream is{bytes};
  CaptureReader r{is};
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.ok());
}

/// The acceptance-criterion round trip: capture a real faulty run and the
/// reader must reproduce the exact event sequence the bus delivered.
TEST(Capture, LiveScenarioStreamRoundTripsExactly) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 77;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = 0.08;
  cfg.forward_error.p_control = 0.02;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};

  std::vector<Event> live;
  s.events().subscribe(EventBus::record_into(live));
  std::stringstream ss;
  CaptureWriter w{ss};
  s.events().subscribe(w.subscriber());

  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 300,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(30)));
  ASSERT_GT(live.size(), 300u);
  EXPECT_EQ(w.written(), live.size());

  const auto decoded = read_capture(ss);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(live[i] == (*decoded)[i])
        << "record " << i << ": " << describe(live[i]) << " vs "
        << describe((*decoded)[i]);
  }
}

}  // namespace
}  // namespace lamsdlc::obs

/// \file test_batching_identity.cpp
/// \brief Pinned delivery behaviour of the simulated channel.
///
/// Every frame a `link::SimplexChannel` delivers passes through one transit
/// discipline (`link::ChannelIngress`): frames wait in an arrival-ordered
/// queue, FIFO among equal arrivals, swept by a single armed kernel event
/// per channel.  Per-frame delivery instants, same-instant ordering and
/// drop/duplicate fates feed every downstream artifact — metrics registry
/// snapshots, `.ldlcap` capture bytes, delivery reports — so these tests pin
/// those artifacts over hostile schedules (faults, reordering jitter,
/// duplicates, outages) on the single-link chaos harness and on a multi-hop
/// store-and-forward network.  Captures and registry snapshots are pinned as
/// `size:digest` (FNV-1a-64 over the bytes): a single reordered or re-timed
/// delivery on any channel changes the digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lamsdlc/net/network.hpp"
#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/collector.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/sim/chaos.hpp"

namespace lamsdlc {
namespace {

using namespace lamsdlc::literals;

/// "size:digest" of \p bytes, the digest being FNV-1a-64 in hex.
std::string fingerprint(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu:%016llx", bytes.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------- single-link chaos --

struct ChaosArtifacts {
  sim::ChaosVerdict verdict;
  std::string capture;  ///< Raw .ldlcap bytes of the full event stream.
};

ChaosArtifacts run_chaos_with_capture(std::uint64_t seed) {
  sim::ChaosKnobs k;
  k.seed = seed;
  k.packets = 150;
  std::ostringstream cap;
  obs::CaptureWriter writer{cap};
  k.tap = [&writer](sim::Scenario& s) {
    s.events().subscribe(writer.subscriber());
  };
  ChaosArtifacts out;
  out.verdict = sim::run_chaos(k);
  out.capture = cap.str();
  return out;
}

// Randomized fault schedules (drop / duplicate / reorder / truncate /
// corrupt, forward and reverse, plus outages and congestion) across several
// seeds: the metrics registry and the capture stream are pinned byte for
// byte.
TEST(BatchingIdentity, ChaosMetricsAndCaptureAreByteIdentical) {
  struct Pinned {
    std::uint64_t seed;
    const char* capture;
    const char* metrics;
    std::uint64_t unique_delivered;
  };
  const std::vector<Pinned> pinned = {
      {3, "16381:6efc160e6052e4ae", "1631:14eea2ea3b03404c", 150},
      {11, "13354:dba4fba3e6217b00", "1463:47e28b95b8d20e63", 150},
      {29, "11099:1741ff937cc0f5f3", "1307:243e7ac562683bf5", 150},
      {57, "10623:b419c7e945f53350", "1272:112b77c9ae2101dd", 150},
  };
  for (const Pinned& want : pinned) {
    SCOPED_TRACE("seed " + std::to_string(want.seed));
    const ChaosArtifacts got = run_chaos_with_capture(want.seed);
    EXPECT_TRUE(got.verdict.ok);
    EXPECT_TRUE(got.verdict.completed);
    EXPECT_EQ(got.verdict.report.unique_delivered, want.unique_delivered);
    // The capture holds every typed event with picosecond timestamps.
    EXPECT_EQ(fingerprint(got.capture), want.capture);
    EXPECT_EQ(fingerprint(got.verdict.metrics_json), want.metrics);
  }
}

// ---------------------------------------------------------------- multi-hop --

struct NetArtifacts {
  net::NetworkReport report;
  std::string metrics_json;
  std::string capture;
};

/// Four-node chain with hostile middle links: silent drops, duplicates and
/// reordering jitter on the relay hops, bidirectional traffic so both flows
/// of every duplex link carry data and checkpoints at once.  Every channel
/// and every LAMS endpoint emits onto the captured bus, so same-instant
/// ordering across channels and endpoints is part of what is pinned.
NetArtifacts run_multihop() {
  Simulator sim;
  obs::EventBus bus;
  obs::Registry reg;
  obs::MetricsCollector collector{bus, reg};
  std::ostringstream cap;
  obs::CaptureWriter writer{cap};
  bus.subscribe(writer.subscriber());

  net::Network net{sim, /*seed=*/7};
  const net::NodeId a = net.add_node("a");
  const net::NodeId r1 = net.add_node("r1");
  const net::NodeId r2 = net.add_node("r2");
  const net::NodeId b = net.add_node("b");

  auto make_spec = [&](net::NodeId x, net::NodeId y) {
    net::LinkSpec s;
    s.a = x;
    s.b = y;
    s.data_rate_bps = 50e6;
    s.prop_delay = 2_ms;
    s.lams.checkpoint_interval = 4_ms;
    s.lams.cumulation_depth = 4;
    s.lams.max_rtt = 12_ms;
    // Keep the provable-non-delivery margin above the injected jitter bound,
    // as the release rule requires (LamsConfig::release_margin).
    s.lams.release_margin = 800_us;
    s.bus_for = [&bus](net::NodeId, net::NodeId, bool) { return &bus; };
    return s;
  };
  const net::LinkId l0 = net.add_link(make_spec(a, r1));
  const net::LinkId l1 = net.add_link(make_spec(r1, r2));
  const net::LinkId l2 = net.add_link(make_spec(r2, b));

  // Hostile relay hops: data-path drops/duplicates/reordering on the middle
  // link, reverse-direction (checkpoint) jitter on the last hop.
  auto add_faults = [&](link::SimplexChannel& ch, const char* label,
                        double p_drop, double p_dup, double p_reorder) {
    phy::FaultInjector::Config fc;
    fc.p_drop = p_drop;
    fc.p_duplicate = p_dup;
    fc.p_reorder = p_reorder;
    fc.max_jitter = 500_us;
    ch.add_fault_stage(std::make_unique<phy::FaultInjector>(
        fc, RandomStream{99, label}));
  };
  add_faults(net.link_channels(l1).forward(), "batchid.mid.fwd", 0.03, 0.05,
             0.30);
  add_faults(net.link_channels(l1).reverse(), "batchid.mid.rev", 0.03, 0.05,
             0.30);
  add_faults(net.link_channels(l2).reverse(), "batchid.last.rev", 0.02, 0.0,
             0.25);

  for (const net::LinkId l : {l0, l1, l2}) {
    net.link_channels(l).forward().set_event_bus(&bus,
                                                 obs::Source::kLinkForward);
    net.link_channels(l).reverse().set_event_bus(&bus,
                                                 obs::Source::kLinkReverse);
  }

  for (int i = 0; i < 40; ++i) {
    net.send_packet(a, b, 1024);
    if (i % 2 == 0) net.send_packet(b, a, 512);
  }
  net.send_message(a, b, /*segments=*/16, /*bytes=*/1024);
  net.run_to_completion(30_s);

  NetArtifacts out;
  out.report = net.report();
  out.metrics_json = reg.json();
  out.capture = cap.str();
  return out;
}

TEST(BatchingIdentity, MultiHopChaosIsByteIdentical) {
  const NetArtifacts got = run_multihop();

  EXPECT_EQ(got.report.packets_sent, 76u);
  EXPECT_EQ(got.report.packets_delivered, 76u);
  EXPECT_EQ(got.report.duplicate_deliveries, 0u);
  EXPECT_EQ(got.report.packets_forwarded, 152u);
  EXPECT_EQ(got.report.messages_completed, 1u);
  EXPECT_DOUBLE_EQ(got.report.mean_delay_s, 0.011151821651921049);
  EXPECT_DOUBLE_EQ(got.report.max_delay_s, 0.02252544);
  // Registry snapshot and the full event capture: one re-timed delivery on
  // any of the six channels, or one same-instant swap between channels and
  // endpoints, diverges the capture.
  EXPECT_EQ(fingerprint(got.capture), "17228:2b411c258f67826a");
  EXPECT_EQ(fingerprint(got.metrics_json), "1317:8d99327fa706992c");
}

}  // namespace
}  // namespace lamsdlc

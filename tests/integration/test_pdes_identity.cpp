/// \file test_pdes_identity.cpp
/// \brief Serial-vs-parallel byte identity for intra-run PDES network runs.
///
/// The PDES driver's contract is absolute: a `sim::run_network` at any
/// partition count produces *bit-identical* output to the serial reference
/// (`partitions == 1`, which runs the same code path inline).  These tests
/// compare everything observable wholesale — the delivery report, the full
/// metrics registry JSON, and the raw capture byte stream — across several
/// partition counts, under clean multi-hop forwarding, frame/control chaos
/// with multi-segment messages, and contact churn with LAMS failover.  A
/// single reordered event anywhere diverges the capture bytes, so equality
/// here is a strong statement about the whole event history.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "lamsdlc/sim/run_network.hpp"

namespace lamsdlc::sim {
namespace {

/// Run the same config serially and at each parallel partition count, and
/// require every observable artifact to match the serial reference exactly.
void expect_partition_invariant(NetworkRunConfig cfg,
                                const std::vector<std::size_t>& counts) {
  cfg.observe = true;
  cfg.partitions = 1;
  const NetworkRunResult serial = run_network(cfg);
  ASSERT_GT(serial.events, 0u) << "observe produced no events; the identity "
                                  "comparison would be vacuous";
  ASSERT_GT(serial.report.packets_sent, 0u);

  for (const std::size_t parts : counts) {
    cfg.partitions = parts;
    const NetworkRunResult par = run_network(cfg);
    SCOPED_TRACE("partitions=" + std::to_string(parts));
    EXPECT_EQ(par.completed, serial.completed);
    EXPECT_EQ(par.report.packets_sent, serial.report.packets_sent);
    EXPECT_EQ(par.report.packets_delivered, serial.report.packets_delivered);
    EXPECT_EQ(par.report.duplicate_deliveries,
              serial.report.duplicate_deliveries);
    EXPECT_EQ(par.report.packets_forwarded, serial.report.packets_forwarded);
    EXPECT_EQ(par.report.packets_parked, serial.report.packets_parked);
    EXPECT_EQ(par.report.messages_completed, serial.report.messages_completed);
    EXPECT_DOUBLE_EQ(par.report.mean_delay_s, serial.report.mean_delay_s);
    EXPECT_DOUBLE_EQ(par.report.max_delay_s, serial.report.max_delay_s);
    EXPECT_EQ(par.events, serial.events);
    EXPECT_EQ(par.metrics_json, serial.metrics_json);
    // The capture is the full event history on the wire format; compare it
    // wholesale (EQ on std::string is byte equality).
    EXPECT_EQ(par.capture, serial.capture);
  }
}

/// Clean multi-hop forwarding over a single-plane ring: every packet crosses
/// several store-and-forward hops, and partition boundaries cut the ring.
TEST(PdesIdentity, CleanMultiHopRing) {
  NetworkRunConfig cfg;
  cfg.satellites = 16;
  cfg.planes = 1;
  cfg.waves = 4;
  cfg.packets_per_wave = 15;
  cfg.horizon = Time::seconds_int(60);
  cfg.seed = 11;
  expect_partition_invariant(cfg, {2, 3, 4});
}

/// Frame and control chaos plus multi-segment messages: retransmission,
/// checkpoint recovery and resequencer interleavings must all land on the
/// same instants at every partition count.
TEST(PdesIdentity, ChaosWithMessages) {
  NetworkRunConfig cfg;
  cfg.satellites = 16;
  cfg.planes = 1;
  cfg.waves = 3;
  cfg.packets_per_wave = 10;
  cfg.message_segments = 8;
  cfg.p_frame = 0.01;
  cfg.p_control = 0.01;
  cfg.horizon = Time::seconds_int(60);
  cfg.seed = 7;
  expect_partition_invariant(cfg, {2, 4});
}

/// Contact churn: a sparse 4-plane Walker whose cross-plane ISLs come and go
/// over the horizon, with traffic waves riding through the transitions.
/// Links failing mid-flight trigger LAMS failover (residue reroute) and some
/// packets park for a later contact — all of it must be partition-invariant,
/// including the deliveries that never happen before the horizon.
TEST(PdesIdentity, ContactChurnWithFailover) {
  NetworkRunConfig cfg;
  cfg.satellites = 32;
  cfg.planes = 4;
  cfg.waves = 8;
  cfg.packets_per_wave = 8;
  cfg.wave_interval = Time::seconds_int(100);
  cfg.horizon = Time::seconds_int(1500);
  // Idle LAMS checkpoint chatter dominates long horizons; a coarser
  // checkpoint keeps the event history (and capture) a manageable size
  // without changing what the test proves.
  cfg.checkpoint_interval = Time::milliseconds(500);
  cfg.seed = 3;
  expect_partition_invariant(cfg, {2, 4});
}

/// The full default constellation (112 satellites in 8 planes of 14, 224
/// ISLs) cut into 7 blocks of 16 satellites, so every partition boundary
/// falls inside a plane.  The other tests stop at 4 partitions and 32
/// satellites.
TEST(PdesIdentity, FullWalkerSevenPartitions) {
  NetworkRunConfig cfg;
  cfg.waves = 2;
  cfg.packets_per_wave = 300;
  cfg.horizon = Time::seconds_int(30);
  expect_partition_invariant(cfg, {7});
}

/// Timeline sampling (`--sample-ms`): the synthesized kMetricSample ticks
/// ride the canonical merged stream, so a sampled capture must stay
/// byte-identical at every partition count — and must actually contain the
/// sample rows (strictly more events than the unsampled run).
TEST(PdesIdentity, TimelineSamplingIsPartitionInvariant) {
  NetworkRunConfig cfg;
  cfg.satellites = 16;
  cfg.planes = 1;
  cfg.waves = 3;
  cfg.packets_per_wave = 12;
  cfg.horizon = Time::seconds_int(60);
  cfg.seed = 13;

  cfg.observe = true;
  cfg.partitions = 1;
  const NetworkRunResult unsampled = run_network(cfg);

  cfg.sample_period = Time::milliseconds(400);
  const NetworkRunResult sampled = run_network(cfg);
  EXPECT_GT(sampled.events, unsampled.events)
      << "sampling added no events; the invariance check would be vacuous";
  EXPECT_EQ(sampled.metrics_json, unsampled.metrics_json)
      << "samples must not feed back into the registry";

  expect_partition_invariant(cfg, {2, 3});
}

}  // namespace
}  // namespace lamsdlc::sim

/// \file protocol_trace.cpp
/// \brief Annotated wire-level trace of one LAMS-DLC error-recovery episode.
///
/// Runs a tiny transfer with a deliberate frame kill and a checkpoint kill,
/// printing every protocol event: I-frame transmissions, the gap-triggered
/// NAK, its repetition across C_depth checkpoints, the renumbered
/// retransmission, and an enforced recovery after a checkpoint blackout.
/// Useful both as documentation of the state machines and as a debugging
/// template.
///
///   $ ./protocol_trace

#include <cstdio>

#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

int main() {
  using namespace lamsdlc;
  using namespace lamsdlc::literals;

  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.data_rate_bps = 10e6;  // slow link: readable timings
  cfg.prop_delay = 5_ms;
  cfg.frame_bytes = 1024;
  cfg.lams.checkpoint_interval = 5_ms;
  cfg.lams.cumulation_depth = 3;
  cfg.lams.max_rtt = 15_ms;

  sim::Scenario s{cfg};
  // Print the protocol endpoints' events; the bus also carries link events.
  s.events().subscribe([](const obs::Event& e) {
    if (e.source != obs::Source::kLamsSender &&
        e.source != obs::Source::kLamsReceiver) {
      return;
    }
    std::printf("[%12.6fs] %s: %s\n", e.at.sec(), obs::to_string(e.source),
                obs::describe(e).c_str());
  });

  std::printf("=== phase 1: five frames, the third one dies on the wire ===\n");
  // Frame 2 occupies [2*tx, 3*tx) on the 10 Mbps link (tx = 835.2 us).
  const Time tx = s.frame_tx_time();
  s.link().forward().set_data_error_model(
      std::make_unique<phy::ScriptedOutageModel>(
          std::vector<phy::ScriptedOutageModel::Outage>{
              {tx * 2 + 1_us, tx * 3 - 1_us}}));
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 5,
                         cfg.frame_bytes);
  s.simulator().run_until(40_ms);

  std::printf("\n=== phase 2: checkpoint blackout -> enforced recovery ===\n");
  // Kill every checkpoint for 25 ms (> C_depth * W_cp = 15 ms) while two
  // more frames go out, one of them damaged.
  s.link().reverse().set_data_error_model(
      std::make_unique<phy::ScriptedOutageModel>(
          std::vector<phy::ScriptedOutageModel::Outage>{{40_ms, 65_ms}}));
  s.link().forward().set_data_error_model(
      std::make_unique<phy::ScriptedOutageModel>(
          std::vector<phy::ScriptedOutageModel::Outage>{
              {41_ms, 41_ms + tx}}));
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 2,
                         cfg.frame_bytes, 40_ms + 1_us);
  s.run_to_completion(1_s);

  const auto r = s.report();
  std::printf("\n=== outcome ===\n");
  std::printf("delivered %llu/%llu, lost %llu, duplicates %llu, "
              "retransmissions %llu, enforced recoveries %llu\n",
              static_cast<unsigned long long>(r.unique_delivered),
              static_cast<unsigned long long>(r.submitted),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.duplicates),
              static_cast<unsigned long long>(r.iframe_retx),
              static_cast<unsigned long long>(
                  s.lams_sender()->request_naks_sent()));
  return r.lost == 0 ? 0 : 1;
}

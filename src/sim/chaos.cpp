#include "lamsdlc/sim/chaos.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "lamsdlc/obs/sampler.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/sim/invariants.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace lamsdlc::sim {

namespace {

/// One drawn fault episode, kept for the reproduction transcript.
struct Episode {
  bool reverse = false;
  const char* kind = "";
  phy::FaultInjector::Affects affects = phy::FaultInjector::Affects::kAll;
  double p = 0.0;
  Time from{};
  Time len{};
};

const char* affects_name(phy::FaultInjector::Affects a) {
  switch (a) {
    case phy::FaultInjector::Affects::kAll:
      return "all";
    case phy::FaultInjector::Affects::kDataOnly:
      return "data";
    case phy::FaultInjector::Affects::kControlOnly:
      return "control";
  }
  return "?";
}

}  // namespace

std::string ChaosVerdict::to_string() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATED")
     << (completed ? " (completed)"
                   : declared_failed ? " (declared failure)" : " (incomplete)")
     << "\n";
  for (const std::string& v : violations) os << "  violation: " << v << "\n";
  os << schedule;
  return os.str();
}

ChaosVerdict run_chaos(const ChaosKnobs& knobs) {
  RandomStream rng{knobs.seed, "chaos.schedule"};
  std::ostringstream schedule;
  schedule << "chaos seed=" << knobs.seed << " packets=" << knobs.packets
           << "\n";

  // Jitter must stay below the sender's release margin, or a late (but
  // delivered) frame would be misread as provably undelivered and
  // retransmitted into a duplicate client delivery (Section 3.2's release
  // rule assumes bounded delivery-time skew).
  const Time kMaxJitter = Time::microseconds(500);

  ScenarioConfig cfg;
  cfg.protocol = Protocol::kLams;
  cfg.metrics = true;  // chaos verdicts read their counters from the registry
  cfg.data_rate_bps = 100e6;
  cfg.prop_delay = Time::milliseconds(5);
  cfg.frame_bytes = knobs.frame_bytes;
  cfg.seed = knobs.seed;
  cfg.lams.checkpoint_interval = Time::milliseconds(5);
  cfg.lams.cumulation_depth = 4;
  cfg.lams.max_rtt = Time::milliseconds(15);
  cfg.lams.release_margin = kMaxJitter + Time::microseconds(200);
  cfg.lams.suppress_duplicates = knobs.suppress_duplicates;
  if (!knobs.suppress_duplicates) schedule << "  ablation: duplicate suppression OFF\n";

  Time fault_span{};  // Total scheduled fault time, for the invariant grace.

  // Background channel noise (plain corruption, the paper's own fault class).
  if (knobs.allow_base_noise && rng.bernoulli(0.5)) {
    cfg.forward_error.kind = ErrorConfig::Kind::kFixedFrameProb;
    cfg.forward_error.p_frame = rng.uniform(0.0, 0.25);
    cfg.forward_error.p_control = rng.uniform(0.0, 0.15);
    cfg.reverse_error.kind = ErrorConfig::Kind::kFixedFrameProb;
    cfg.reverse_error.p_frame = rng.uniform(0.0, 0.15);
    cfg.reverse_error.p_control = cfg.reverse_error.p_frame;
    schedule << "  base noise: pf=" << cfg.forward_error.p_frame
             << " pc_fwd=" << cfg.forward_error.p_control
             << " p_rev=" << cfg.reverse_error.p_frame << "\n";
  }

  // Feedback-error asymmetry pin: overrides whatever the schedule drew for
  // the reverse channel, leaving the forward channel and every subsequent
  // random draw untouched (the sweep varies only feedback quality).
  if (knobs.reverse_noise >= 0.0) {
    cfg.reverse_error.kind = ErrorConfig::Kind::kFixedFrameProb;
    cfg.reverse_error.p_frame = knobs.reverse_noise;
    cfg.reverse_error.p_control = knobs.reverse_noise;
    schedule << "  reverse noise pinned: p_rev=" << knobs.reverse_noise
             << "\n";
  }

  if (knobs.self_heal) {
    cfg.lams.self_audit_period = cfg.lams.checkpoint_interval * 2;
    cfg.lams.resync_enabled = true;
    cfg.lams.resync_watchdog = cfg.lams.failure_timeout() * 2;
    cfg.lams.implausible_ack_threshold = 3;
    schedule << "  self-heal: audit=" << cfg.lams.self_audit_period.ms()
             << "ms watchdog=" << cfg.lams.resync_watchdog.ms() << "ms\n";
  }

  // Congestion: slow receiver processing against small buffers forces
  // Stop-Go and (with the hard cap) congestion discards.
  if (knobs.allow_congestion && rng.bernoulli(0.4)) {
    cfg.lams.t_proc = Time::microseconds(rng.uniform_int(100, 300));
    cfg.lams.recv_high_watermark =
        static_cast<std::size_t>(rng.uniform_int(8, 32));
    cfg.lams.recv_hard_capacity =
        cfg.lams.recv_high_watermark +
        static_cast<std::size_t>(rng.uniform_int(4, 16));
    schedule << "  congestion: t_proc=" << cfg.lams.t_proc.us()
             << "us watermark=" << cfg.lams.recv_high_watermark
             << " hard_cap=" << cfg.lams.recv_hard_capacity << "\n";
  }

  // Draw the fault episodes.
  std::vector<const char*> kinds;
  if (knobs.allow_drop) kinds.push_back("drop");
  if (knobs.allow_duplicate) kinds.push_back("duplicate");
  if (knobs.allow_reorder) kinds.push_back("reorder");
  if (knobs.allow_truncate) kinds.push_back("truncate");
  if (knobs.allow_corrupt) kinds.push_back("corrupt");
  std::vector<Episode> episodes;
  if (!kinds.empty() &&
      (knobs.allow_forward_faults || knobs.allow_reverse_faults)) {
    const auto n = 1 + rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      Episode e;
      if (knobs.allow_forward_faults && knobs.allow_reverse_faults) {
        e.reverse = rng.bernoulli(0.5);
      } else {
        e.reverse = knobs.allow_reverse_faults;
      }
      e.kind = kinds[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
      // The reverse channel only carries control traffic; on the forward
      // channel, half the episodes spare the Request-NAK path (data-only) —
      // the class-selective case the feedback-error literature studies.
      e.affects = (!e.reverse && rng.bernoulli(0.5))
                      ? phy::FaultInjector::Affects::kDataOnly
                      : phy::FaultInjector::Affects::kAll;
      e.p = rng.uniform(0.25, 1.0);
      e.from = Time::milliseconds(rng.uniform_int(0, 80));
      e.len = Time::milliseconds(rng.uniform_int(2, 30));
      fault_span += e.len;
      episodes.push_back(e);
      schedule << "  episode " << i << ": " << (e.reverse ? "reverse" : "forward")
               << " " << e.kind << " affects=" << affects_name(e.affects)
               << " p=" << e.p << " window=[" << e.from.ms() << "ms, "
               << (e.from + e.len).ms() << "ms)\n";
    }
  }

  // Full two-way outage: pointing loss.  Long outages lawfully end in a
  // declared unrecoverable failure, which the checker audits for clean
  // residue accounting.
  Time outage_from{}, outage_len{};
  if (knobs.allow_link_outage && rng.bernoulli(0.3)) {
    outage_from = Time::milliseconds(rng.uniform_int(5, 60));
    outage_len = Time::milliseconds(rng.uniform_int(5, 80));
    fault_span += outage_len;
    schedule << "  link outage: [" << outage_from.ms() << "ms, "
             << (outage_from + outage_len).ms() << "ms)\n";
  }

  // Reverse-only outage (feedback blackout): checkpoints vanish while data
  // keeps flowing, so the sender's silence detector — not the receiver —
  // must carry the episode.
  if (!knobs.reverse_outage_len.is_zero()) {
    fault_span += knobs.reverse_outage_len;
    schedule << "  reverse outage: [" << knobs.reverse_outage_from.ms()
             << "ms, "
             << (knobs.reverse_outage_from + knobs.reverse_outage_len).ms()
             << "ms)\n";
  }

  Scenario s{cfg};
  if (knobs.tap) knobs.tap(s);
  // Declared after `s` so it is destroyed first — its dtor cancels the
  // pending tick before the simulator goes away.
  std::optional<obs::Sampler> sampler;
  if (!knobs.sample_period.is_zero()) {
    sampler.emplace(s.simulator(), s.metrics(), s.events(),
                    knobs.sample_period);
    sampler->start();
  }

  std::size_t stage_idx = 0;
  std::vector<const phy::FaultInjector*> all_stages;
  std::vector<const phy::FaultInjector*> reverse_stages;
  for (const Episode& e : episodes) {
    phy::FaultInjector::Config fc;
    fc.affects = e.affects;
    fc.windows.push_back({e.from, e.from + e.len});
    fc.max_jitter = kMaxJitter;
    const std::string kind{e.kind};
    if (kind == "drop") fc.p_drop = e.p;
    if (kind == "duplicate") fc.p_duplicate = e.p;
    if (kind == "reorder") fc.p_reorder = e.p;
    if (kind == "truncate") fc.p_truncate = e.p;
    if (kind == "corrupt") fc.p_corrupt = e.p;
    auto stage = std::make_unique<phy::FaultInjector>(
        fc, RandomStream{knobs.seed, "chaos.fault." + std::to_string(stage_idx++)});
    all_stages.push_back(stage.get());
    if (e.reverse) {
      reverse_stages.push_back(stage.get());
      s.link().reverse().add_fault_stage(std::move(stage));
    } else {
      s.link().forward().add_fault_stage(std::move(stage));
    }
  }
  if (!outage_len.is_zero()) {
    s.simulator().schedule_at(outage_from, [&s] { s.link().set_up(false); });
    s.simulator().schedule_at(outage_from + outage_len,
                              [&s] { s.link().set_up(true); });
  }
  if (!knobs.reverse_outage_len.is_zero()) {
    s.simulator().schedule_at(knobs.reverse_outage_from,
                              [&s] { s.link().reverse().set_up(false); });
    s.simulator().schedule_at(
        knobs.reverse_outage_from + knobs.reverse_outage_len,
        [&s] { s.link().reverse().set_up(true); });
  }

  InvariantLimits limits;
  limits.max_outstanding = knobs.packets;
  limits.max_holding = cfg.lams.resolving_period_bound();
  // With a finite hard capacity the congestion discard must keep the
  // t_proc pipeline at or below it; an infinite capacity stays unchecked.
  if (cfg.lams.recv_hard_capacity != static_cast<std::size_t>(-1)) {
    limits.max_recv_buffer = cfg.lams.recv_hard_capacity;
  }
  // Faults lawfully stall releases for their whole span plus a recovery, and
  // Stop-Go pacing stretches the retransmission queue; the flat term covers
  // the congestion-throttled drain.
  limits.grace = fault_span * 2 + Time::milliseconds(500);
  limits.seed = knobs.seed;
  InvariantChecker checker{s, limits};

  // Workload shape: one batch burst, or a paced arrival stream.
  std::unique_ptr<workload::RateSource> source;
  if (rng.bernoulli(0.4)) {
    const Time gap = Time::microseconds(rng.uniform_int(100, 500));
    const bool backpressure = rng.bernoulli(0.5);
    schedule << "  workload: rate gap=" << gap.us() << "us backpressure="
             << (backpressure ? "yes" : "no") << "\n";
    source = std::make_unique<workload::RateSource>(
        s.simulator(), s.sender(), s.tracker(), s.ids(),
        workload::RateSource::Config{gap, knobs.packets, knobs.frame_bytes,
                                     Time{}, backpressure});
    source->start();
  } else {
    schedule << "  workload: batch\n";
    workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
                           knobs.packets, knobs.frame_bytes);
  }

  const bool completed = s.run_to_completion(knobs.horizon);
  const bool failed =
      s.lams_sender()->mode() == lams::LamsSender::Mode::kFailed;
  checker.finish(completed);

  ChaosVerdict v;
  v.ok = checker.ok();
  v.completed = completed;
  v.declared_failed = failed;
  v.violations = checker.violations();
  v.schedule = schedule.str();
  v.report = s.report();

  // Fold the fault-stage counters into the registry (`phy.fault.*`), then
  // read every verdict counter back from the registry — the event stream is
  // the single source of truth for link/endpoint counts, and any divergence
  // from the channels' own counters would show up as a soak-test failure.
  obs::Registry& reg = s.metrics();
  for (const phy::FaultInjector* st : all_stages) {
    reg.counter("phy.fault.dropped").add(st->dropped());
    reg.counter("phy.fault.duplicated").add(st->duplicated());
    reg.counter("phy.fault.reordered").add(st->reordered());
    reg.counter("phy.fault.truncated").add(st->truncated());
    reg.counter("phy.fault.corrupted").add(st->corrupted());
  }
  for (const phy::FaultInjector* st : reverse_stages) {
    v.reverse_faulted += st->dropped() + st->duplicated() + st->reordered() +
                         st->truncated() + st->corrupted();
  }
  reg.counter("phy.fault.reverse_faulted").add(v.reverse_faulted);
  reg.gauge("scenario.throughput_frames_s").set(v.report.throughput_frames_s);
  reg.gauge("scenario.efficiency").set(v.report.efficiency);

  const auto both = [&reg](const char* suffix) {
    return reg.counter_value(std::string{"link.forward."} + suffix) +
           reg.counter_value(std::string{"link.reverse."} + suffix);
  };
  v.faults_dropped = both("fault_dropped");
  v.faults_duplicated = both("fault_duplicated");
  v.faults_delayed = both("fault_delayed");
  v.faults_truncated = both("fault_truncated");
  v.frames_corrupted = both("wire_corrupted");
  v.congestion_discards =
      reg.counter_value("lams.receiver.congestion_discards");
  v.duplicates_suppressed =
      reg.counter_value("lams.receiver.duplicates_suppressed");
  v.request_naks = reg.counter_value("lams.sender.control_tx");
  v.checkpoints_sent = reg.counter_value("lams.receiver.checkpoints_emitted");
  v.metrics_json = reg.json();
  return v;
}

}  // namespace lamsdlc::sim

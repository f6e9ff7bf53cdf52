#include "lamsdlc/sim/scenario.hpp"

#include <string>
#include <utility>

namespace lamsdlc::sim {

std::unique_ptr<phy::ErrorModel> make_error_model(const ErrorConfig& e,
                                                  std::uint64_t run_seed,
                                                  std::string_view stream) {
  switch (e.kind) {
    case ErrorConfig::Kind::kPerfect:
      return std::make_unique<phy::PerfectChannel>();
    case ErrorConfig::Kind::kBernoulliBer:
      return std::make_unique<phy::BernoulliBerModel>(
          e.ber, RandomStream{run_seed, stream});
    case ErrorConfig::Kind::kFixedFrameProb:
      return std::make_unique<phy::FixedFrameErrorModel>(
          e.p_frame, RandomStream{run_seed, stream});
    case ErrorConfig::Kind::kGilbertElliott:
      return std::make_unique<phy::GilbertElliottModel>(
          e.gilbert, RandomStream{run_seed, stream});
  }
  return std::make_unique<phy::PerfectChannel>();
}

std::unique_ptr<phy::ErrorModel> Scenario::make_error(
    const ErrorConfig& e, std::string_view stream) const {
  return make_error_model(e, cfg_.seed, stream);
}

Scenario::Scenario(ScenarioConfig cfg)
    : cfg_{std::move(cfg)}, tracker_{sim_, &stats_} {
  auto prop = cfg_.propagation
                  ? cfg_.propagation
                  : [d = cfg_.prop_delay](Time) { return d; };

  link::SimplexChannel::Config fwd;
  fwd.data_rate_bps = cfg_.data_rate_bps;
  fwd.propagation = prop;
  fwd.iframe_fec = cfg_.iframe_fec;
  fwd.control_fec = cfg_.control_fec;
  fwd.byte_level = cfg_.byte_level_wire;
  fwd.byte_level_seed = cfg_.seed ^ 0xB17E;
  // Endpoints reject decoded frames whose sequence fields fall outside the
  // protocol's numbering size (NBDT numbers absolutely: no limit applies).
  switch (cfg_.protocol) {
    case Protocol::kLams:
      fwd.decode_limits.seq_modulus = cfg_.lams.modulus;
      break;
    case Protocol::kSrHdlc:
    case Protocol::kGbnHdlc:
      fwd.decode_limits.seq_modulus = cfg_.hdlc.modulus;
      break;
    case Protocol::kNbdt:
      break;
  }
  link::SimplexChannel::Config rev = fwd;
  rev.byte_level_seed = cfg_.seed ^ 0xB17F;

  link_ = std::make_unique<link::FullDuplexLink>(
      sim_, fwd, make_error(cfg_.forward_error, "fwd.data"), rev,
      make_error(cfg_.reverse_error, "rev.data"));
  link_->forward().set_event_bus(&bus_, obs::Source::kLinkForward);
  link_->reverse().set_event_bus(&bus_, obs::Source::kLinkReverse);
  if (cfg_.metrics) {
    collector_ = std::make_unique<obs::MetricsCollector>(bus_, registry_);
  }

  // Distinct control-frame error processes so P_C can differ from P_F
  // (fixed-probability mode); in the other modes frame length already
  // differentiates the classes.
  if (cfg_.forward_error.kind == ErrorConfig::Kind::kFixedFrameProb) {
    link_->forward().set_control_error_model(
        std::make_unique<phy::FixedFrameErrorModel>(
            cfg_.forward_error.p_control, RandomStream{cfg_.seed, "fwd.ctl"}));
  }
  if (cfg_.reverse_error.kind == ErrorConfig::Kind::kFixedFrameProb) {
    link_->reverse().set_control_error_model(
        std::make_unique<phy::FixedFrameErrorModel>(
            cfg_.reverse_error.p_control, RandomStream{cfg_.seed, "rev.ctl"}));
  }

  switch (cfg_.protocol) {
    case Protocol::kLams:
      lams_tx_ = std::make_unique<lams::LamsSender>(sim_, link_->forward(),
                                                    cfg_.lams, &stats_, &bus_);
      lams_rx_ = std::make_unique<lams::LamsReceiver>(sim_, link_->reverse(),
                                                      cfg_.lams, &tracker_,
                                                      &stats_, &bus_);
      link_->reverse().set_sink(lams_tx_.get());
      link_->forward().set_sink(lams_rx_.get());
      lams_rx_->start();
      sender_ = lams_tx_.get();
      break;
    case Protocol::kSrHdlc:
      sr_tx_ = std::make_unique<hdlc::SrSender>(sim_, link_->forward(),
                                                cfg_.hdlc, &stats_);
      sr_rx_ = std::make_unique<hdlc::SrReceiver>(
          sim_, link_->reverse(), cfg_.hdlc, &tracker_, &stats_);
      link_->reverse().set_sink(sr_tx_.get());
      link_->forward().set_sink(sr_rx_.get());
      sender_ = sr_tx_.get();
      break;
    case Protocol::kGbnHdlc:
      gbn_tx_ = std::make_unique<hdlc::GbnSender>(sim_, link_->forward(),
                                                  cfg_.hdlc, &stats_);
      gbn_rx_ = std::make_unique<hdlc::GbnReceiver>(
          sim_, link_->reverse(), cfg_.hdlc, &tracker_, &stats_);
      link_->reverse().set_sink(gbn_tx_.get());
      link_->forward().set_sink(gbn_rx_.get());
      sender_ = gbn_tx_.get();
      break;
    case Protocol::kNbdt:
      nbdt_tx_ = std::make_unique<nbdt::NbdtSender>(sim_, link_->forward(),
                                                    cfg_.nbdt, &stats_);
      nbdt_rx_ = std::make_unique<nbdt::NbdtReceiver>(
          sim_, link_->reverse(), cfg_.nbdt, &tracker_, &stats_);
      link_->reverse().set_sink(nbdt_tx_.get());
      link_->forward().set_sink(nbdt_rx_.get());
      nbdt_rx_->start();
      sender_ = nbdt_tx_.get();
      break;
  }
}

Scenario::~Scenario() = default;

void Scenario::set_listener(PacketListener* l) {
  if (lams_rx_) lams_rx_->set_listener(l);
  if (sr_rx_) sr_rx_->set_listener(l);
  if (gbn_rx_) gbn_rx_->set_listener(l);
  if (nbdt_rx_) nbdt_rx_->set_listener(l);
}

Time Scenario::frame_tx_time() const {
  frame::Frame f;
  if (cfg_.protocol == Protocol::kLams || cfg_.protocol == Protocol::kNbdt) {
    f.body = frame::IFrame{0, 0, cfg_.frame_bytes, {}};
  } else {
    f.body = frame::HdlcIFrame{0, 0, false, 0, cfg_.frame_bytes, {}};
  }
  return link_->forward().tx_time(f);
}

Time Scenario::control_tx_time() const {
  frame::Frame f;
  if (cfg_.protocol == Protocol::kLams) {
    f.body = frame::CheckpointFrame{};
  } else if (cfg_.protocol == Protocol::kNbdt) {
    f.body = frame::SelectiveAckFrame{};
  } else {
    f.body = frame::HdlcSFrame{};
  }
  return link_->reverse().tx_time(f);
}

bool Scenario::run_to_completion(Time horizon, Time check_every) {
  while (sim_.now() < horizon) {
    const Time next = std::min(horizon, sim_.now() + check_every);
    sim_.run_until(next);
    if (tracker_.submitted() > 0 && tracker_.all_delivered() &&
        sender_->idle()) {
      return true;
    }
    if (lams_tx_ && lams_tx_->mode() == lams::LamsSender::Mode::kFailed) {
      return false;  // link declared failed; no further progress possible
    }
  }
  return tracker_.submitted() > 0 && tracker_.all_delivered() && sender_->idle();
}

analysis::Params Scenario::analysis_params() const {
  analysis::Params p;
  p.t_f = frame_tx_time().sec();
  p.t_c = control_tx_time().sec();
  p.t_proc = (cfg_.protocol == Protocol::kLams ? cfg_.lams.t_proc
                                               : cfg_.hdlc.t_proc)
                 .sec();
  const Time prop =
      cfg_.propagation ? cfg_.propagation(sim_.now()) : cfg_.prop_delay;
  p.rtt = 2.0 * prop.sec();
  p.alpha = std::max(0.0, cfg_.hdlc.timeout.sec() - p.rtt);
  p.i_cp = cfg_.lams.checkpoint_interval.sec();
  p.c_depth = cfg_.lams.cumulation_depth;
  p.window = cfg_.hdlc.window;

  auto frame_prob = [&](const ErrorConfig& e, bool control) {
    frame::Frame f;
    if (control) {
      if (cfg_.protocol == Protocol::kLams) {
        f.body = frame::CheckpointFrame{};
      } else if (cfg_.protocol == Protocol::kNbdt) {
        f.body = frame::SelectiveAckFrame{};
      } else {
        f.body = frame::HdlcSFrame{};
      }
    } else if (cfg_.protocol == Protocol::kLams ||
               cfg_.protocol == Protocol::kNbdt) {
      f.body = frame::IFrame{0, 0, cfg_.frame_bytes, {}};
    } else {
      f.body = frame::HdlcIFrame{0, 0, false, 0, cfg_.frame_bytes, {}};
    }
    switch (e.kind) {
      case ErrorConfig::Kind::kPerfect:
        return 0.0;
      case ErrorConfig::Kind::kBernoulliBer:
        return phy::frame_error_probability(e.ber, frame::wire_bits(f));
      case ErrorConfig::Kind::kFixedFrameProb:
        return control ? e.p_control : e.p_frame;
      case ErrorConfig::Kind::kGilbertElliott: {
        // Long-run average BER of the two-state channel.
        const double bad = phy::GilbertElliottModel{e.gilbert,
                                                    RandomStream{0, "tmp"}}
                               .bad_fraction();
        const double ber =
            bad * e.gilbert.bad_ber + (1.0 - bad) * e.gilbert.good_ber;
        return phy::frame_error_probability(ber, frame::wire_bits(f));
      }
    }
    return 0.0;
  };
  p.p_f = frame_prob(cfg_.forward_error, false);
  // Control traffic of interest flows on the reverse channel (checkpoints /
  // RR / SREJ).
  p.p_c = frame_prob(cfg_.reverse_error, true);
  return p;
}

ScenarioReport Scenario::report() const {
  ScenarioReport r;
  r.submitted = tracker_.submitted();
  r.unique_delivered = tracker_.unique_delivered();
  r.duplicates = tracker_.duplicates();
  r.lost = r.submitted - r.unique_delivered;

  r.elapsed_s = tracker_.last_delivery().sec();
  if (r.elapsed_s > 0 && r.unique_delivered > 0) {
    r.throughput_frames_s = static_cast<double>(r.unique_delivered) / r.elapsed_s;
    r.efficiency = r.throughput_frames_s * frame_tx_time().sec();
  }

  r.mean_delay_s = stats_.packet_delay_s.mean();
  r.mean_holding_s = stats_.holding_time_s.mean();

  // Close the occupancy integrals at the current instant.
  DlcStats& s = const_cast<DlcStats&>(stats_);
  s.send_buffer.finish(sim_.now());
  s.recv_buffer.finish(sim_.now());
  r.mean_send_buffer = stats_.send_buffer.average();
  r.peak_send_buffer = stats_.send_buffer.peak();
  r.mean_recv_buffer = stats_.recv_buffer.average();
  r.peak_recv_buffer = stats_.recv_buffer.peak();

  r.iframe_tx = stats_.iframe_tx;
  r.iframe_retx = stats_.iframe_retx;
  r.control_tx = stats_.control_tx;
  if (r.unique_delivered > 0) {
    r.tx_per_frame = static_cast<double>(r.iframe_tx) /
                     static_cast<double>(r.unique_delivered);
  }
  return r;
}

}  // namespace lamsdlc::sim

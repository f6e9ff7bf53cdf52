#include "lamsdlc/link/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "lamsdlc/frame/codec.hpp"

namespace lamsdlc::link {
namespace {

/// Wire sequence of a frame, for event payloads (0 for unnumbered frames).
std::uint64_t wire_ctr(const frame::Frame& f) noexcept {
  if (const auto* in = std::get_if<frame::IFrame>(&f.body)) return in->seq;
  if (const auto* hin = std::get_if<frame::HdlcIFrame>(&f.body)) return hin->ns;
  return 0;
}

}  // namespace

SimplexChannel::SimplexChannel(Simulator& sim, Config cfg,
                               std::unique_ptr<phy::ErrorModel> error_model)
    : sim_{sim},
      ingress_{sim, Simulator::kDefaultPriority},
      cfg_{std::move(cfg)},
      error_{std::move(error_model)},
      flip_rng_{cfg_.byte_level_seed, "link.bitflip"} {
  if (cfg_.iframe_fec) iframe_codec_.emplace(*cfg_.iframe_fec);
  if (cfg_.control_fec) control_codec_.emplace(*cfg_.control_fec);
}

frame::Frame SimplexChannel::through_codec(frame::Frame f, bool corrupt) {
  frame::encode_into(f, wire_buf_);
  if (corrupt) {
    // One or more real bit flips (a short geometric tail mimics a small
    // error cluster inside the frame).
    const auto flips = 1 + flip_rng_.geometric(0.5);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(flip_rng_.uniform_int(
          0, static_cast<std::int64_t>(wire_buf_.size()) - 1));
      wire_buf_[at] ^=
          static_cast<std::uint8_t>(1u << flip_rng_.uniform_int(0, 7));
    }
  }
  frame::DecodeReject why = frame::DecodeReject::kNone;
  auto decoded = frame::decode(wire_buf_, cfg_.decode_limits, &why);
  if (!decoded.has_value()) {
    decode_rejects_.count(why);
    // The FCS caught the damage (the expected outcome for corrupt frames):
    // deliver the unreadable husk — the original, moved through, marked.
    if (!corrupt) ++codec_mismatches_;  // clean frame failed decode: a bug
    f.corrupted = true;
    return f;
  }
  if (corrupt) {
    // Flips survived the CRC check: aliasing (~2^-16 per damaged frame).
    // Surface it and fail safe by still marking the frame corrupted, which
    // preserves link-model assumption 9 for the protocols above.
    ++codec_aliases_;
    decoded->corrupted = true;
    return *std::move(decoded);
  }
  // Clean round trip: restore the simulation-side identity the codec
  // intentionally keeps off the wire, and verify the wire fields survived.
  if (auto* in = std::get_if<frame::IFrame>(&decoded->body)) {
    const auto* oin = std::get_if<frame::IFrame>(&f.body);
    if (oin != nullptr && in->seq == oin->seq &&
        in->payload_bytes == oin->payload_bytes) {
      in->packet_id = oin->packet_id;
    } else {
      ++codec_mismatches_;
    }
  } else if (auto* hin = std::get_if<frame::HdlcIFrame>(&decoded->body)) {
    const auto* oin = std::get_if<frame::HdlcIFrame>(&f.body);
    if (oin != nullptr && hin->ns == oin->ns && hin->poll == oin->poll) {
      hin->packet_id = oin->packet_id;
    } else {
      ++codec_mismatches_;
    }
  }
  return *std::move(decoded);
}

std::size_t SimplexChannel::coded_bits(const frame::Frame& f) const noexcept {
  const std::size_t raw = frame::wire_bits(f);
  if (f.is_control()) {
    return control_codec_ ? control_codec_->coded_bits(raw) : raw;
  }
  return iframe_codec_ ? iframe_codec_->coded_bits(raw) : raw;
}

Time SimplexChannel::tx_time(const frame::Frame& f) const noexcept {
  const double bits = static_cast<double>(coded_bits(f));
  return Time::seconds(bits / cfg_.data_rate_bps);
}

Time SimplexChannel::busy_until() const noexcept {
  return transmitting_ ? tx_done_ : sim_.now();
}

bool SimplexChannel::busy() const noexcept {
  return transmitting_ || !queue_.empty();
}

void SimplexChannel::send(frame::Frame f) {
  if (!up_) {
    ++frames_dropped_;
    ingress_.emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kLinkDown,
                       f);
    return;
  }
  queue_.push_back(std::move(f));
  if (!transmitting_) start_next();
}

void SimplexChannel::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (up_) {
    // Restored: tell the sender the transmitter is available again.
    if (idle_cb_) idle_cb_();
    return;
  }
  frames_dropped_ += queue_.size();
  for (const auto& q : queue_) {
    ingress_.emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kLinkDown,
                       q);
  }
  queue_.clear();
  // Frames already handed off (including one mid-serialization, whose
  // completion event also finds its epoch stale) are lost in flight.
  ++down_epoch_;
  ingress_.bump_epoch();
  transmitting_ = false;
}

void SimplexChannel::start_next() {
  if (queue_.empty() || !up_) {
    if (idle_cb_ && up_) idle_cb_();
    return;
  }
  frame::Frame f = std::move(queue_.front());
  queue_.pop_front();
  const Time start = sim_.now();
  const std::size_t bits = coded_bits(f);
  const Time dur = tx_time(f);
  const Time end = start + dur;
  transmitting_ = true;
  tx_done_ = end;
  ++frames_sent_;
  bits_sent_ += bits;

  // The error process models the *post-FEC residual* channel (the paper
  // folds the codec into the medium, assumption 5), so it sees information
  // bits; the FEC expansion affects only serialization time above.
  phy::ErrorModel* model =
      (f.is_control() && control_error_) ? control_error_.get() : error_.get();
  phy::FrameFate fate;
  fate.corrupt =
      model != nullptr && model->corrupts(start, end, frame::wire_bits(f));
  for (auto& stage : faults_) {
    fate.combine(stage->fate(f.is_control(), start, end, frame::wire_bits(f)));
  }
  if (fate.corrupt) {
    ++frames_corrupted_;
    ingress_.emit_fate(obs::EventKind::kFrameCorrupted,
                       obs::DropCause::kWireCorruption, f);
  }
  if (cfg_.byte_level) {
    f = through_codec(std::move(f), fate.corrupt);
  } else if (fate.corrupt) {
    f.corrupted = true;
  }
  if (fate.truncate) {
    // Header damage: whatever survived the codec is an unreadable husk.
    ++frames_truncated_;
    ingress_.emit_fate(obs::EventKind::kFrameCorrupted,
                       obs::DropCause::kFaultTruncation, f);
    f.corrupted = true;
  }

  const Time prop = cfg_.propagation(start);
  const std::uint64_t epoch = down_epoch_;

  // Serialization completes: free the transmitter, start the next frame.
  sim_.schedule_at(end, [this, epoch] {
    if (epoch != down_epoch_) return;  // link went down meanwhile
    transmitting_ = false;
    start_next();
  });

  if (fate.drop) {
    // Silent omission: the frame occupied the serializer but nothing ever
    // reaches the far end — the pure-loss channel of the self-stabilizing
    // ARQ literature, stronger than the paper's detectable-error model.
    ++frames_fault_dropped_;
    ingress_.emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kFaultDrop,
                       f);
    return;
  }

  // Head of the frame left at `start`; the tail (and hence the deliverable
  // frame) arrives at end + prop, plus any fault-stage jitter.  A delayed
  // frame can land after later-sent ones: the channel is no longer FIFO.
  const Time arrival = end + prop + fate.delay;
  if (!fate.delay.is_zero()) {
    ++frames_delayed_;
    ingress_.emit_fate(obs::EventKind::kFrameDelayed,
                       obs::DropCause::kFaultJitter, f);
  }
  // Duplicates precede the original, so among equal arrivals they deliver
  // first.
  for (std::uint32_t i = 0; i < fate.duplicates; ++i) {
    ++frames_duplicated_;
    ingress_.emit_fate(obs::EventKind::kFrameDuplicated,
                       obs::DropCause::kFaultDuplicate, f);
    hand_off(arrival, epoch, frame::Frame{f});
  }
  hand_off(arrival, epoch, std::move(f));
}

void SimplexChannel::hand_off(Time arrival, std::uint64_t epoch,
                              frame::Frame&& f) {
  // The fate is fully decided, so under PDES the finished (frame, arrival,
  // epoch) triple can leave this kernel entirely.
  if (egress_) {
    egress_(arrival, epoch, std::move(f));
  } else {
    ingress_.push(arrival, epoch, std::move(f));
  }
}

void ChannelIngress::emit_fate(obs::EventKind kind, obs::DropCause cause,
                               const frame::Frame& f) {
  if (bus_ == nullptr || !bus_->enabled()) return;
  obs::Event e;
  e.at = sim_.now();
  e.source = src_;
  e.kind = kind;
  e.p.drop = {cause, static_cast<std::uint8_t>(f.is_control() ? 1 : 0),
              wire_ctr(f)};
  bus_->emit(e);
}

void ChannelIngress::push(Time arrival, std::uint64_t epoch,
                          frame::Frame&& f) {
  if (arrival < sim_.now()) {
    // The window lookahead bound (min link propagation) was violated: this
    // frame's delivery instant is already in the receiver's past.  Fail loud
    // — a silent mis-ordering here would diverge from the serial run in ways
    // that surface only as wrong protocol behaviour much later.
    throw std::logic_error(
        "ChannelIngress::push: arrival before local clock (lookahead bound "
        "violated)");
  }
  if (transit_.empty() || !(arrival < transit_.back().arrival)) {
    transit_.push_back(Transit{arrival, epoch, std::move(f)});
  } else {
    // Out-of-order arrival (fault jitter, or propagation shrinking faster
    // than the serializer advances).  Insert after every entry arriving at
    // or before the same instant, preserving FIFO among equal arrivals.
    const auto pos = std::upper_bound(
        transit_.begin(), transit_.end(), arrival,
        [](Time a, const Transit& t) { return a < t.arrival; });
    transit_.insert(pos, Transit{arrival, epoch, std::move(f)});
  }
  arm_sweep();
}

void ChannelIngress::arm_sweep() {
  if (transit_.empty()) return;
  const Time head = transit_.front().arrival;
  if (sweep_armed_) {
    if (!(head < sweep_at_)) return;
    sim_.cancel(sweep_event_);
  }
  sweep_at_ = head;
  sweep_armed_ = true;
  sweep_event_ = sim_.schedule_at(head, sweep_priority_, [this] { sweep(); });
}

void ChannelIngress::sweep() {
  sweep_armed_ = false;
  const Time now = sim_.now();
  while (!transit_.empty() && !(now < transit_.front().arrival)) {
    Transit t = std::move(transit_.front());
    transit_.pop_front();
    if (t.epoch != epoch_) {
      ++frames_dropped_;  // photons in flight when pointing was lost
      emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kLinkDown, t.f);
      continue;
    }
    if (sink_ == nullptr) {
      ++frames_dropped_;
      emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kNoSink, t.f);
      continue;
    }
    // Delivery can synchronously send (relays, piggybacked responses) and
    // re-enter push; the pop above keeps the queue consistent, and arm_sweep
    // below coalesces with any re-entrant arm.
    sink_->on_frame(std::move(t.f));
  }
  arm_sweep();
}

}  // namespace lamsdlc::link

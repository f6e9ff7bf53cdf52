#include "lamsdlc/hdlc/gbn.hpp"

#include <utility>

namespace lamsdlc::hdlc {

// ---------------------------------------------------------------- sender --

GbnSender::GbnSender(Simulator& sim, link::SimplexChannel& data_out,
                     HdlcConfig cfg, sim::DlcStats* stats)
    : sim_{sim},
      out_{data_out},
      cfg_{cfg},
      stats_{stats},
      seqspace_{cfg.modulus} {
  out_.set_idle_callback([this] { try_send(); });
}

GbnSender::~GbnSender() { sim_.cancel(timeout_timer_); }

void GbnSender::submit(sim::Packet p) {
  if (stats_) ++stats_->packets_submitted;
  queue_.push_back(p);
  if (stats_) {
    stats_->send_buffer.update(sim_.now(),
                               static_cast<double>(sending_buffer_depth()));
  }
  try_send();
}

std::size_t GbnSender::sending_buffer_depth() const {
  return queue_.size() + window_.size();
}

bool GbnSender::idle() const { return queue_.empty() && window_.empty(); }

void GbnSender::try_send() {
  if (out_.busy() || !out_.up()) return;

  // Retransmission pass: the cursor rewinds to base on REJ/timeout and
  // walks forward over already-windowed frames before admitting new ones.
  if (resend_cursor_ < next_ctr_) {
    auto it = window_.find(resend_cursor_);
    if (it == window_.end()) {
      ++resend_cursor_;
      try_send();
      return;
    }
    Pending& p = it->second;
    ++p.attempts;
    if (p.attempts == 1) p.first_tx = sim_.now();
    frame::Frame f;
    f.body = frame::HdlcIFrame{seqspace_.wrap(resend_cursor_), 0, false,
                               p.packet.id, p.packet.bytes, {}};
    if (stats_) {
      ++stats_->iframe_tx;
      if (p.attempts > 1) ++stats_->iframe_retx;
    }
    ++resend_cursor_;
    if (!sim_.pending(timeout_timer_)) arm_timeout();
    out_.send(std::move(f));
    return;
  }

  // Admit a new frame if the window has room.
  if (queue_.empty() || next_ctr_ >= base_ctr_ + cfg_.window) return;
  const std::uint64_t ctr = next_ctr_++;
  resend_cursor_ = next_ctr_;
  auto it = window_.emplace(ctr, Pending{queue_.front(), sim_.now(), 1}).first;
  queue_.pop_front();
  frame::Frame f;
  f.body = frame::HdlcIFrame{seqspace_.wrap(ctr), 0, false,
                             it->second.packet.id, it->second.packet.bytes, {}};
  if (stats_) ++stats_->iframe_tx;
  if (!sim_.pending(timeout_timer_)) arm_timeout();
  out_.send(std::move(f));
}

void GbnSender::release_below(std::uint64_t ctr) {
  bool advanced = false;
  while (!window_.empty() && window_.begin()->first < ctr) {
    auto it = window_.begin();
    if (stats_) {
      stats_->holding_time_s.add((sim_.now() - it->second.first_tx).sec());
    }
    window_.erase(it);
    advanced = true;
  }
  base_ctr_ = window_.empty() ? next_ctr_ : window_.begin()->first;
  if (advanced) {
    // Progress: restart the timer for the new base (or clear it).
    sim_.cancel(timeout_timer_);
    timeout_timer_ = 0;
    if (!window_.empty() || resend_cursor_ < next_ctr_) arm_timeout();
    if (stats_) {
      stats_->send_buffer.update(sim_.now(),
                                 static_cast<double>(sending_buffer_depth()));
    }
  }
}

void GbnSender::go_back_to(std::uint64_t ctr) {
  if (ctr < resend_cursor_) resend_cursor_ = ctr;
}

void GbnSender::on_frame(frame::Frame f) {
  if (f.corrupted) {
    if (stats_) ++stats_->control_corrupted_rx;
    return;
  }
  const auto* s = std::get_if<frame::HdlcSFrame>(&f.body);
  if (s == nullptr) return;
  // Window-based acknowledgement arithmetic: N(R) in [base, base+W] moves
  // the window; anything else is a stale re-ack.
  const std::uint32_t d = seqspace_.forward(seqspace_.wrap(base_ctr_), s->nr);
  const std::uint64_t nr = d <= cfg_.window ? base_ctr_ + d : base_ctr_;
  switch (s->type) {
    case frame::HdlcSFrame::Type::RR:
      release_below(nr);
      break;
    case frame::HdlcSFrame::Type::REJ:
      release_below(nr);
      go_back_to(nr);
      break;
    default:
      break;
  }
  try_send();
}

void GbnSender::arm_timeout() {
  sim_.cancel(timeout_timer_);
  timeout_timer_ = sim_.schedule_in(cfg_.timeout, [this] { on_timeout(); });
}

void GbnSender::on_timeout() {
  timeout_timer_ = 0;
  if (window_.empty()) return;
  ++timeouts_;
  resend_cursor_ = base_ctr_;
  arm_timeout();
  try_send();
}

// -------------------------------------------------------------- receiver --

GbnReceiver::GbnReceiver(Simulator& sim, link::SimplexChannel& control_out,
                         HdlcConfig cfg, sim::PacketListener* listener,
                         sim::DlcStats* stats)
    : sim_{sim},
      out_{control_out},
      cfg_{cfg},
      listener_{listener},
      stats_{stats},
      seqspace_{cfg.modulus} {}

void GbnReceiver::on_frame(frame::Frame f) {
  const auto* in = std::get_if<frame::HdlcIFrame>(&f.body);
  if (in == nullptr) {
    if (f.corrupted && stats_) ++stats_->control_corrupted_rx;
    return;
  }
  if (f.corrupted) {
    if (stats_) ++stats_->iframe_corrupted_rx;
    return;  // unreadable; the gap is caught on the next good frame
  }
  const std::uint32_t d = seqspace_.forward(seqspace_.wrap(vr_), in->ns);
  const bool in_receive_window = d < cfg_.window;
  const std::uint64_t ctr = vr_ + d;  // meaningful only when in window

  frame::Frame resp;
  if (in_receive_window && ctr == vr_) {
    ++vr_;
    rej_outstanding_ = false;
    const sim::Packet p{in->packet_id, in->payload_bytes, Time{},
                        0,             0,                 1,
                        in->payload};
    sim_.schedule_in(cfg_.t_proc, [this, p] {
      if (listener_) listener_->on_packet(p, sim_.now());
    });
    resp.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::RR,
                                  seqspace_.wrap(vr_), false, {}};
  } else {
    // Out of sequence: discard (no receive buffer in GBN) and reject once
    // per gap.
    ++discarded_;
    if (!in_receive_window) {
      // Duplicate of something delivered: re-acknowledge so the sender can
      // advance if the earlier RR was lost.
      resp.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::RR,
                                    seqspace_.wrap(vr_), false, {}};
    } else if (!rej_outstanding_) {
      rej_outstanding_ = true;
      resp.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::REJ,
                                    seqspace_.wrap(vr_), false, {}};
    } else {
      return;  // already rejected this gap
    }
  }
  if (stats_) ++stats_->control_tx;
  out_.send(std::move(resp));
}

}  // namespace lamsdlc::hdlc

#include "lamsdlc/hdlc/sr.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace lamsdlc::hdlc {

// ---------------------------------------------------------------- sender --

SrSender::SrSender(Simulator& sim, link::SimplexChannel& data_out,
                   HdlcConfig cfg, sim::DlcStats* stats)
    : sim_{sim},
      out_{data_out},
      cfg_{cfg},
      stats_{stats},
      seqspace_{cfg.modulus} {
  out_.set_idle_callback([this] { try_send(); });
}

SrSender::~SrSender() { sim_.cancel(timeout_timer_); }

void SrSender::submit(sim::Packet p) {
  if (stats_) ++stats_->packets_submitted;
  queue_.push_back(p);
  note_buffer_change();
  // Defer the transmission kick by one zero-delay event so that a burst of
  // same-instant submissions is seen whole: the P bit must mark the true end
  // of the burst, not the first frame of an unfinished arrival loop.
  if (!kick_pending_) {
    kick_pending_ = true;
    sim_.schedule_in(Time{}, [this] {
      kick_pending_ = false;
      try_send();
    });
  }
}

std::size_t SrSender::sending_buffer_depth() const {
  return queue_.size() + window_.size();
}

bool SrSender::accepting() const {
  // The paper's point: SR-HDLC has no transparent buffer size — the sending
  // buffer grows without bound under sustained load.  We never push back.
  return true;
}

bool SrSender::idle() const {
  return queue_.empty() && window_.empty() && retx_queue_.empty();
}

void SrSender::note_buffer_change() {
  if (stats_) {
    stats_->send_buffer.update(sim_.now(),
                               static_cast<double>(sending_buffer_depth()));
  }
}

void SrSender::try_send() {
  if (out_.busy() || !out_.up()) return;

  // Retransmission period: resend rejected/timed-out frames, P on the last.
  while (!retx_queue_.empty() && !window_.contains(retx_queue_.front())) {
    retx_queue_.pop_front();  // acknowledged meanwhile
  }
  if (!retx_queue_.empty()) {
    const std::uint64_t ctr = retx_queue_.front();
    retx_queue_.pop_front();
    while (!retx_queue_.empty() && !window_.contains(retx_queue_.front())) {
      retx_queue_.pop_front();
    }
    const bool poll = retx_queue_.empty();
    send_iframe(ctr, poll);
    if (poll) {
      awaiting_response_ = true;
      arm_timeout();
    }
    return;
  }

  // Stutter (SR+ST): instead of idling while awaiting the response, walk
  // the unacknowledged frames and re-send them, re-polling once per cycle.
  // Duplicates are absorbed by the receiver's acceptance window; the RR or
  // SREJ that eventually lands supersedes the churn.
  if (cfg_.stutter && awaiting_response_ && !window_.empty()) {
    auto it = window_.lower_bound(stutter_cursor_);
    const bool wrapped = it == window_.end();
    if (wrapped) it = window_.begin();
    const std::uint64_t ctr = it->first;
    stutter_cursor_ = ctr + 1;
    const bool poll = std::next(it) == window_.end();
    ++stutter_retx_;
    send_iframe(ctr, poll);
    if (poll) arm_timeout();
    return;
  }

  // Transmission period: fill the window, P on the last frame of the burst.
  if (awaiting_response_ || queue_.empty()) return;
  if (next_ctr_ >= base_ctr_ + cfg_.window) return;

  const std::uint64_t ctr = next_ctr_++;
  window_.emplace(ctr, Pending{queue_.front(), Time{}, 0});
  queue_.pop_front();
  const bool poll = queue_.empty() || next_ctr_ == base_ctr_ + cfg_.window;
  send_iframe(ctr, poll);
  if (poll) {
    awaiting_response_ = true;
    arm_timeout();
  }
}

void SrSender::send_iframe(std::uint64_t ctr, bool poll) {
  Pending& p = window_.at(ctr);
  ++p.attempts;
  if (p.attempts == 1) p.first_tx = sim_.now();

  frame::Frame f;
  f.body = frame::HdlcIFrame{seqspace_.wrap(ctr), 0, poll, p.packet.id,
                             p.packet.bytes, {}};
  if (stats_) {
    ++stats_->iframe_tx;
    if (p.attempts > 1) ++stats_->iframe_retx;
  }
  out_.send(std::move(f));
}

void SrSender::on_frame(frame::Frame f) {
  if (f.corrupted) {
    if (stats_) ++stats_->control_corrupted_rx;
    return;
  }
  const auto* s = std::get_if<frame::HdlcSFrame>(&f.body);
  if (s == nullptr) return;
  switch (s->type) {
    case frame::HdlcSFrame::Type::RR:
      handle_rr(*s);
      break;
    case frame::HdlcSFrame::Type::SREJ:
      handle_srej(*s);
      break;
    case frame::HdlcSFrame::Type::RNR:
      // Receiver not ready: take the cumulative acknowledgement, stay in
      // the response-wait state, and let timeout recovery re-offer the
      // missing head at t_out pace.
      release_below(ack_counter(s->nr));
      arm_timeout();
      break;
    default:
      break;  // REJ is a GBN-side frame
  }
}

void SrSender::release_below(std::uint64_t ctr) {
  while (!window_.empty() && window_.begin()->first < ctr) {
    auto it = window_.begin();
    if (stats_) {
      stats_->holding_time_s.add((sim_.now() - it->second.first_tx).sec());
    }
    window_.erase(it);
  }
  base_ctr_ = window_.empty() ? next_ctr_ : window_.begin()->first;
  note_buffer_change();
}

std::uint64_t SrSender::ack_counter(frame::Seq nr) const {
  // N(R) acknowledges up to base+W; anything outside that window is a stale
  // re-acknowledgement and must not move the window (classic HDLC window
  // arithmetic — nearest-counter unwrapping is ambiguous at W = M/2).
  const std::uint32_t d = seqspace_.forward(seqspace_.wrap(base_ctr_), nr);
  return d <= cfg_.window ? base_ctr_ + d : base_ctr_;
}

void SrSender::handle_rr(const frame::HdlcSFrame& s) {
  const std::uint64_t nr = ack_counter(s.nr);
  sim_.cancel(timeout_timer_);
  timeout_timer_ = 0;
  release_below(nr);
  if (window_.empty()) {
    // Final positive acknowledgement: the window closes (Section 4).
    awaiting_response_ = false;
    ++windows_closed_;
  } else {
    // Defensive: an RR that leaves frames unacknowledged means our model of
    // the receiver is out of sync; resend the remainder rather than stall.
    retx_queue_.clear();
    for (const auto& [ctr, p] : window_) retx_queue_.push_back(ctr);
  }
  try_send();
}

void SrSender::handle_srej(const frame::HdlcSFrame& s) {
  const std::uint64_t nr = ack_counter(s.nr);
  sim_.cancel(timeout_timer_);
  timeout_timer_ = 0;
  auto reject = [&](frame::Seq wire) {
    // Rejected frames lie in [base, base+W).
    const std::uint32_t d = seqspace_.forward(seqspace_.wrap(base_ctr_), wire);
    if (d >= cfg_.window) return;  // stale
    const std::uint64_t ctr = base_ctr_ + d;
    if (!window_.contains(ctr)) return;
    if (std::find(retx_queue_.begin(), retx_queue_.end(), ctr) !=
        retx_queue_.end()) {
      return;
    }
    retx_queue_.emplace_back(ctr);
  };
  if (s.srej_list.empty()) {
    reject(s.nr);  // single-SREJ form
  } else {
    for (const frame::Seq wire : s.srej_list) reject(wire);
  }
  release_below(nr);
  if (retx_queue_.empty() && !window_.empty()) {
    // Everything listed was already acknowledged; poll again via timeout
    // path to avoid deadlock.
    for (const auto& [ctr, p] : window_) retx_queue_.push_back(ctr);
  }
  try_send();
}

void SrSender::arm_timeout() {
  sim_.cancel(timeout_timer_);
  timeout_timer_ = sim_.schedule_in(cfg_.timeout, [this] { on_timeout(); });
}

void SrSender::on_timeout() {
  timeout_timer_ = 0;
  if (window_.empty()) return;
  ++timeouts_;
  // Timeout recovery (retransmission period): resend every unacknowledged
  // frame, P on the last.
  retx_queue_.clear();
  for (const auto& [ctr, p] : window_) retx_queue_.push_back(ctr);
  try_send();
}

// -------------------------------------------------------------- receiver --

SrReceiver::SrReceiver(Simulator& sim, link::SimplexChannel& control_out,
                       HdlcConfig cfg, sim::PacketListener* listener,
                       sim::DlcStats* stats)
    : sim_{sim},
      out_{control_out},
      cfg_{cfg},
      listener_{listener},
      stats_{stats},
      seqspace_{cfg.modulus} {}

void SrReceiver::on_frame(frame::Frame f) {
  const auto* in = std::get_if<frame::HdlcIFrame>(&f.body);
  if (in == nullptr) {
    if (f.corrupted && stats_) ++stats_->control_corrupted_rx;
    return;
  }
  handle_iframe(*in, f.corrupted);
}

void SrReceiver::handle_iframe(const frame::HdlcIFrame& in, bool corrupted) {
  if (corrupted) {
    // Unreadable: neither N(S) nor the P bit survives.  A lost poll is
    // recovered by the sender's t_out.
    if (stats_) ++stats_->iframe_corrupted_rx;
    return;
  }
  // Classic receive-window acceptance: frames with forward distance from
  // V(R) inside [0, W) are new; everything else is an old duplicate (e.g. a
  // timeout resend of frames whose RR was lost).
  const std::uint32_t d = seqspace_.forward(seqspace_.wrap(vr_), in.ns);
  if (d < cfg_.window) {
    const std::uint64_t ctr = vr_ + d;
    if (!held_.contains(ctr)) {
      if (ctr != vr_ && held_.size() >= cfg_.recv_capacity) {
        // Resequencing buffer exhausted: discard the out-of-order frame
        // (the limited-buffering secondary); the sender learns through RNR
        // and timeout recovery re-supplies it later.
        ++busy_discards_;
      } else {
        held_.emplace(ctr, sim::Packet{in.packet_id, in.payload_bytes, Time{},
                                       0, 0, 1, in.payload});
        if (stats_) {
          stats_->recv_buffer.update(sim_.now(),
                                     static_cast<double>(held_.size()));
        }
      }
    }
    highest_plus1_ = std::max(highest_plus1_, ctr + 1);
    deliver_ready();
  }

  if (in.poll) {
    // Respond once this frame has been processed.
    sim_.schedule_in(cfg_.t_proc, [this] { respond(); });
  }
}

void SrReceiver::deliver_ready() {
  // In-sequence constraint: only the consecutive prefix leaves the receiver.
  while (!held_.empty() && held_.begin()->first == vr_) {
    const sim::Packet p = held_.begin()->second;
    held_.erase(held_.begin());
    ++vr_;
    sim_.schedule_in(cfg_.t_proc, [this, p] {
      if (listener_) listener_->on_packet(p, sim_.now());
    });
  }
  if (stats_) {
    stats_->recv_buffer.update(sim_.now(), static_cast<double>(held_.size()));
  }
}

void SrReceiver::respond() {
  frame::Frame f;
  if (held_.size() >= cfg_.recv_capacity && !held_.contains(vr_)) {
    // Buffer full and blocked on the missing head: declare not-ready.  The
    // cumulative N(R) still releases the sender's acknowledged prefix; the
    // head arrives via timeout recovery.
    f.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::RNR,
                               seqspace_.wrap(vr_), true, {}};
    if (stats_) ++stats_->control_tx;
    out_.send(std::move(f));
    return;
  }
  if (vr_ == highest_plus1_) {
    f.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::RR, seqspace_.wrap(vr_),
                               true, {}};
  } else {
    std::vector<frame::Seq> missing;
    for (std::uint64_t c = vr_; c < highest_plus1_; ++c) {
      if (!held_.contains(c)) missing.push_back(seqspace_.wrap(c));
    }
    f.body = frame::HdlcSFrame{frame::HdlcSFrame::Type::SREJ,
                               seqspace_.wrap(vr_), true, std::move(missing)};
  }
  if (stats_) ++stats_->control_tx;
  out_.send(std::move(f));
}

}  // namespace lamsdlc::hdlc

#include "lamsdlc/lams/session.hpp"

#include <algorithm>
#include <utility>

namespace lamsdlc::lams {

// --------------------------------------------------------- SessionSender --

SessionSender::SessionSender(Simulator& sim, link::FrameChannel& data_out,
                             SessionConfig cfg, sim::DlcStats* stats,
                             obs::EventBus* bus)
    : sim_{sim},
      out_{data_out},
      cfg_{cfg},
      inner_{sim, data_out, cfg.lams, stats, bus} {
  inner_.set_failure_callback([this] { on_inner_failed(); });
  // Checkpoint releases shrink the inner buffer: each change is a potential
  // accepting() rising edge for a producer paused on backpressure.
  inner_.set_buffer_change_callback([this] { note_accepting(); });
  was_accepting_ = accepting();
}

SessionSender::~SessionSender() {
  sim_.cancel(handshake_timer_);
  sim_.cancel(drain_timer_);
}

void SessionSender::enter(State s) {
  state_ = s;
  if (on_state_) on_state_(s);
  note_accepting();  // state gates accepting(); this may be a rising edge
}

void SessionSender::note_accepting() {
  const bool now = accepting();
  const bool was = was_accepting_;
  // Update *before* the callback: a re-entrant submit() that fills the
  // buffer again must see the edge already consumed.
  was_accepting_ = now;
  if (now && !was && on_can_accept_) on_can_accept_();
}

void SessionSender::open() {
  if (state_ == State::kInitializing || state_ == State::kEstablished) return;
  // The inner sender's RESYNC episodes advance its epoch past the one this
  // layer handed out; allocating merely epoch_+1 could then collide with an
  // epoch a RESYNC already used and killed, letting that era's stale
  // checkpoints be misread against the new session's numbering.
  epoch_ = std::max(epoch_, inner_.current_epoch()) + 1;
  retries_ = 0;
  inner_.set_expected_epoch(epoch_);
  enter(State::kInitializing);
  send_handshake(frame::SessionFrame::Kind::kInit);
}

void SessionSender::send_handshake(frame::SessionFrame::Kind kind) {
  frame::Frame f;
  f.body = frame::SessionFrame{kind, epoch_};
  out_.send(std::move(f));
  sim_.cancel(handshake_timer_);
  handshake_timer_ =
      sim_.schedule_in(cfg_.init_retry, [this] { on_handshake_timer(); });
}

void SessionSender::on_handshake_timer() {
  handshake_timer_ = 0;
  if (state_ != State::kInitializing && state_ != State::kClosing) return;
  if (++retries_ > cfg_.max_handshake_retries) {
    enter(State::kFailed);
    return;
  }
  send_handshake(state_ == State::kInitializing
                     ? frame::SessionFrame::Kind::kInit
                     : frame::SessionFrame::Kind::kClose);
}

void SessionSender::submit(sim::Packet p) {
  if (state_ == State::kEstablished) {
    inner_.submit(p);
    return;
  }
  // Buffered traffic waits for the handshake (or the resync).
  pending_.push_back(p);
  if (state_ == State::kIdle) open();
  note_accepting();  // a falling edge re-arms the detector
}

std::size_t SessionSender::sending_buffer_depth() const {
  return pending_.size() + inner_.sending_buffer_depth();
}

bool SessionSender::accepting() const {
  return state_ != State::kFailed && state_ != State::kClosed &&
         state_ != State::kClosing && state_ != State::kDraining &&
         !close_requested_ &&
         sending_buffer_depth() < cfg_.lams.send_buffer_capacity;
}

bool SessionSender::idle() const {
  return pending_.empty() && inner_.idle();
}

void SessionSender::on_frame(frame::Frame f) {
  if (f.corrupted) {
    inner_.on_frame(std::move(f));  // let it count the damage
    return;
  }
  if (const auto* s = std::get_if<frame::SessionFrame>(&f.body)) {
    switch (s->kind) {
      case frame::SessionFrame::Kind::kInitAck:
        if (s->epoch == epoch_ && state_ == State::kInitializing) {
          sim_.cancel(handshake_timer_);
          handshake_timer_ = 0;
          enter(State::kEstablished);
          while (!pending_.empty()) {
            inner_.submit(pending_.front());
            pending_.pop_front();
          }
          if (close_requested_) {
            close_requested_ = false;
            close();
          }
        }
        return;
      case frame::SessionFrame::Kind::kCloseAck:
        if (s->epoch == epoch_ && state_ == State::kClosing) {
          sim_.cancel(handshake_timer_);
          handshake_timer_ = 0;
          enter(State::kClosed);
        }
        return;
      default:
        return;  // INIT/CLOSE are sender-to-receiver only
    }
  }
  // Acknowledgement traffic reaches the inner sender only while a session
  // is (being) established; a late checkpoint after close must not re-arm
  // the silence detector.
  if (state_ == State::kInitializing || state_ == State::kEstablished ||
      state_ == State::kDraining) {
    inner_.on_frame(std::move(f));
  }
}

void SessionSender::close() {
  if (state_ == State::kClosed || state_ == State::kClosing ||
      state_ == State::kFailed) {
    return;
  }
  if (state_ == State::kIdle || state_ == State::kInitializing) {
    // Finish the handshake first so both ends agree on the epoch being
    // closed; the buffered traffic still gets its chance to flow.
    close_requested_ = true;
    return;
  }
  enter(State::kDraining);
  check_drained();
}

void SessionSender::check_drained() {
  if (state_ != State::kDraining) return;
  if (idle()) {
    // Everything resolved: silence the inner machinery (its checkpoint
    // timer would otherwise read the post-close quiet as a link failure)
    // and run the CLOSE exchange.
    inner_.reset_session();
    retries_ = 0;
    enter(State::kClosing);
    send_handshake(frame::SessionFrame::Kind::kClose);
    return;
  }
  drain_timer_ = sim_.schedule_in(cfg_.lams.checkpoint_interval,
                                  [this] { check_drained(); });
}

void SessionSender::on_inner_failed() {
  if (cfg_.auto_resync && resyncs_ < cfg_.max_resyncs) {
    ++resyncs_;
    try_resync();
  } else {
    enter(State::kFailed);
  }
}

void SessionSender::try_resync() {
  // Requeue everything unresolved under a fresh epoch and re-run INIT.
  inner_.reset_session();
  state_ = State::kIdle;
  open();
}

// ------------------------------------------------------- SessionReceiver --

SessionReceiver::SessionReceiver(Simulator& sim,
                                 link::FrameChannel& control_out,
                                 SessionConfig cfg,
                                 sim::PacketListener* listener,
                                 sim::DlcStats* stats, obs::EventBus* bus)
    : out_{control_out},
      inner_{sim, control_out, cfg.lams, listener, stats, bus} {}

void SessionReceiver::reply(frame::SessionFrame::Kind kind,
                            std::uint32_t epoch) {
  frame::Frame f;
  f.body = frame::SessionFrame{kind, epoch};
  out_.send(std::move(f));
}

void SessionReceiver::on_frame(frame::Frame f) {
  if (!f.corrupted) {
    if (const auto* s = std::get_if<frame::SessionFrame>(&f.body)) {
      switch (s->kind) {
        case frame::SessionFrame::Kind::kInit:
          if (s->epoch > epoch_ || (!in_session_ && s->epoch == epoch_)) {
            // New epoch (or re-INIT after close): reset and start fresh.
            epoch_ = s->epoch;
            in_session_ = true;
            ++inits_;
            inner_.reset_session();
            inner_.set_epoch(epoch_);
            inner_.start();
            if (on_lifecycle_) on_lifecycle_(true, epoch_);
          }
          // Always (re-)acknowledge the current epoch: a duplicate INIT
          // means our previous INIT-ACK was lost.
          if (s->epoch == epoch_) {
            reply(frame::SessionFrame::Kind::kInitAck, epoch_);
          }
          return;
        case frame::SessionFrame::Kind::kClose:
          if (s->epoch == epoch_ && in_session_) {
            in_session_ = false;
            inner_.stop();
            if (on_lifecycle_) on_lifecycle_(false, epoch_);
          }
          reply(frame::SessionFrame::Kind::kCloseAck, s->epoch);
          return;
        default:
          return;  // ACKs are receiver-to-sender only
      }
    }
  }
  if (in_session_) inner_.on_frame(std::move(f));
}

const char* to_string(SessionSender::State s) noexcept {
  switch (s) {
    case SessionSender::State::kIdle: return "idle";
    case SessionSender::State::kInitializing: return "initializing";
    case SessionSender::State::kEstablished: return "established";
    case SessionSender::State::kDraining: return "draining";
    case SessionSender::State::kClosing: return "closing";
    case SessionSender::State::kClosed: return "closed";
    case SessionSender::State::kFailed: return "failed";
  }
  return "?";
}

}  // namespace lamsdlc::lams

#include "lamsdlc/lams/sender.hpp"

#include <algorithm>
#include <vector>

namespace lamsdlc::lams {
namespace {

obs::SenderMode to_obs(LamsSender::Mode m) noexcept {
  switch (m) {
    case LamsSender::Mode::kNormal: return obs::SenderMode::kNormal;
    case LamsSender::Mode::kEnforcedRecovery:
      return obs::SenderMode::kEnforcedRecovery;
    case LamsSender::Mode::kResyncing: return obs::SenderMode::kResyncing;
    case LamsSender::Mode::kFailed: return obs::SenderMode::kFailed;
  }
  return obs::SenderMode::kNormal;
}

}  // namespace

LamsSender::LamsSender(Simulator& sim, link::FrameChannel& data_out,
                       LamsConfig cfg, sim::DlcStats* stats,
                       obs::EventBus* bus)
    : sim_{sim},
      out_{data_out},
      cfg_{cfg},
      stats_{stats},
      obs_{bus},
      seqspace_{cfg.modulus} {
  out_.set_idle_callback([this] { try_send(); });
  if (!cfg_.self_audit_period.is_zero()) {
    audit_timer_ =
        sim_.schedule_in(cfg_.self_audit_period, [this] { on_audit_tick(); });
  }
  if (!cfg_.resync_watchdog.is_zero()) {
    watchdog_timer_ =
        sim_.schedule_in(cfg_.resync_watchdog, [this] { on_watchdog(); });
  }
}

LamsSender::~LamsSender() {
  sim_.cancel(checkpoint_timer_);
  sim_.cancel(failure_timer_);
  sim_.cancel(pace_timer_);
  sim_.cancel(audit_timer_);
  sim_.cancel(watchdog_timer_);
  sim_.cancel(resync_timer_);
}

obs::Event LamsSender::make_event(obs::EventKind k) const {
  obs::Event e;
  e.at = sim_.now();
  e.source = obs::Source::kLamsSender;
  e.kind = k;
  return e;
}

void LamsSender::emit_frame_event(obs::EventKind k, std::uint64_t ctr,
                                  const Pending& p, std::int64_t holding_ps) {
  if (!obs_.active()) return;
  obs::Event e = make_event(k);
  e.p.frame = {ctr, p.packet.id, p.attempts, 0, holding_ps};
  obs_.emit(e);
}

void LamsSender::emit_mode_change(Mode from, Mode to,
                                  obs::RecoveryReason reason) {
  if (!obs_.active()) return;
  obs::Event e = make_event(obs::EventKind::kRecoveryTransition);
  e.p.recovery = {to_obs(from), to_obs(to), reason};
  obs_.emit(e);
}

void LamsSender::emit_timer(obs::EventKind k, obs::TimerId id, Time deadline) {
  if (!obs_.active()) return;
  obs::Event e = make_event(k);
  e.p.timer = {id, deadline.ps()};
  obs_.emit(e);
}

void LamsSender::submit(sim::Packet p) {
  if (stats_) ++stats_->packets_submitted;
  if (obs_.active()) {
    // Admission timestamp: the root of the packet's trace span tree; the gap
    // to its first kFrameSent is the issuance-queueing latency component.
    obs::Event e = make_event(obs::EventKind::kPacketAdmitted);
    e.p.frame = {0, p.id, 0, 0, 0};
    obs_.emit(e);
  }
  new_queue_.push_back(Pending{p, Time{}, 0});
  note_buffer_change();
  try_send();
}

std::size_t LamsSender::sending_buffer_depth() const {
  return new_queue_.size() + retx_queue_.size() + outstanding_.size();
}

bool LamsSender::accepting() const {
  return mode_ != Mode::kFailed &&
         sending_buffer_depth() < cfg_.send_buffer_capacity;
}

bool LamsSender::idle() const {
  return new_queue_.empty() && retx_queue_.empty() && outstanding_.empty();
}

void LamsSender::note_buffer_change() {
  if (stats_) {
    stats_->send_buffer.update(sim_.now(),
                               static_cast<double>(sending_buffer_depth()));
  }
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kBufferOccupancy);
    e.p.buffer = {obs::BufferId::kSendBuffer,
                  static_cast<std::uint32_t>(sending_buffer_depth())};
    obs_.emit(e);
  }
  if (on_buffer_change_) on_buffer_change_();
}

void LamsSender::try_send() {
  // kResyncing quiesces the pipe completely: no new frames *and* no
  // retransmissions, so nothing sent under the dying epoch races the RESYNC
  // down the (FIFO) forward channel.  complete_resync() re-opens the tap.
  if (mode_ == Mode::kFailed || mode_ == Mode::kResyncing || out_.busy() ||
      !out_.up()) {
    return;
  }
  // Numbering-window stall (Section 3.3): a new frame may only be issued
  // while fewer than modulus/2 frames are unresolved (outstanding plus the
  // NAKed ones waiting to go out again — those re-enter the outstanding set
  // the moment they are retransmitted).  Past that population the wrapped
  // sequence references on the wire turn ambiguous.  Retransmissions are
  // exempt: they conserve the unresolved population.  The stall clears when
  // a checkpoint releases or claims frames (handle_checkpoint ends with
  // try_send), and a silent receiver trips the checkpoint/failure timers as
  // usual, so the stall cannot deadlock.
  const bool window_open =
      outstanding_.size() + retx_queue_.size() < cfg_.numbering_window();
  const bool can_new = mode_ == Mode::kNormal && window_open;
  if (retx_queue_.empty() && (!can_new || new_queue_.empty())) return;

  const Time now = sim_.now();
  if (now < next_send_allowed_) {
    if (!sim_.pending(pace_timer_)) {
      pace_timer_ = sim_.schedule_at(next_send_allowed_, [this] { try_send(); });
    }
    return;
  }

  Pending p;
  if (!retx_queue_.empty()) {
    p = std::move(retx_queue_.front());
    retx_queue_.pop_front();
  } else {
    p = std::move(new_queue_.front());
    new_queue_.pop_front();
  }
  send_iframe(std::move(p));
}

void LamsSender::send_iframe(Pending p) {
  const Time now = sim_.now();
  ++p.attempts;
  if (p.attempts == 1) p.first_tx = now;

  // Counter-collision hardening: in a sane run no in-flight slot can hold a
  // counter at or above next_ctr_, but a corrupted (backward-warped) counter
  // would land this frame on a live slot — the emplace below would quietly
  // fail and the packet would leak out of every queue: silent loss no
  // recovery can undo.  Skip over claimed counters instead (bounded by the
  // numbering window); the periodic self-audit still reports the corruption.
  while (outstanding_.contains(next_ctr_)) ++next_ctr_;

  const std::uint64_t ctr = next_ctr_++;
  if (p.attempts > 1 && obs_.active()) {
    // The old->new pairing, emitted before the new copy's kFrameSent: the
    // wire never links the two numbers (relaxed in-sequence rule), so this
    // record is what lets trace reconstruction follow renumbering chains.
    obs::Event e = make_event(obs::EventKind::kRetransmitMapped);
    e.p.map = {p.last_ctr, ctr, p.packet.id, p.attempts};
    obs_.emit(e);
  }
  p.last_ctr = ctr;
  frame::Frame f;
  // Retransmissions re-copy the payload: the frame on the wire owns its
  // bytes, while the held Pending keeps the original for the next attempt.
  f.body =
      frame::IFrame{seqspace_.wrap(ctr), p.packet.id, p.packet.bytes,
                    p.packet.data};

  const Time tx = out_.tx_time(f);
  const Time prop = out_.propagation_at(now);
  const Time expected_arrival = now + tx + prop + cfg_.t_proc;

  if (stats_) {
    ++stats_->iframe_tx;
    if (p.attempts > 1) ++stats_->iframe_retx;
  }
  emit_frame_event(obs::EventKind::kFrameSent, ctr, p);

  outstanding_.insert(ctr, std::move(p), expected_arrival);

  // Pace against the Stop-Go rate factor: at factor 1 this equals the
  // serialization time, i.e. back-to-back transmission.
  next_send_allowed_ = now + tx * (1.0 / rate_factor_);

  out_.send(std::move(f));

  // Before the first checkpoint arrives, guard startup with a generous
  // timer: a silent receiver is detected after one response time plus the
  // usual checkpoint timeout.
  if (!got_any_cp_ && !sim_.pending(checkpoint_timer_)) {
    const Time grace =
        cfg_.max_rtt + cfg_.checkpoint_interval + cfg_.checkpoint_timeout();
    checkpoint_timer_ =
        sim_.schedule_in(grace, [this] { on_checkpoint_silence(); });
    emit_timer(obs::EventKind::kTimerArmed, obs::TimerId::kCheckpointTimer,
               sim_.now() + grace);
  }
}

void LamsSender::on_frame(frame::Frame f) {
  if (mode_ == Mode::kFailed) return;
  if (f.corrupted) {
    // A damaged control command is unreadable; the cumulative NAK design
    // makes the *next* checkpoint carry the same information.
    if (stats_) ++stats_->control_corrupted_rx;
    if (obs_.active()) {
      obs::Event e = make_event(obs::EventKind::kFrameDropped);
      e.p.drop = {obs::DropCause::kCorruptControl, 1, 0};
      obs_.emit(e);
    }
    return;
  }
  if (const auto* cp = std::get_if<frame::CheckpointFrame>(&f.body)) {
    handle_checkpoint(*cp);
    return;
  }
  if (const auto* ack = std::get_if<frame::ResyncAckFrame>(&f.body)) {
    handle_resync_ack(*ack);
    return;
  }
  // Any other frame type on the reverse channel is a misconfiguration;
  // ignore it rather than guess.
}

void LamsSender::handle_checkpoint(const frame::CheckpointFrame& cp) {
  if (mode_ == Mode::kResyncing) {
    // expected_epoch_ already holds the pending RESYNC epoch: a checkpoint
    // stamped with it proves the receiver applied the re-anchor even if the
    // explicit RESYNC-ACK was lost on the reverse channel.  Complete the
    // episode and process this checkpoint under the fresh numbering;
    // anything else is pre-resync feedback, stale by definition.
    if (cp.epoch != expected_epoch_) return;
    complete_resync();
  }
  if (cp.epoch != expected_epoch_) return;  // leftover of an earlier session
  if (cfg_.resync_enabled && cp.resync_req) {
    // The receiver's self-audit declared its own sequence tracking corrupt,
    // so this checkpoint's content cannot be trusted — do not process it;
    // re-anchor both ends instead.
    initiate_resync(obs::RecoveryReason::kResyncRequested);
    return;
  }
  if (got_any_cp_ && cp.cp_seq <= last_cp_seq_) return;  // stale/duplicate
  const std::uint64_t prev_seq = got_any_cp_ ? last_cp_seq_ : 0;
  got_any_cp_ = true;
  last_cp_seq_ = cp.cp_seq;

  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kCheckpointProcessed);
    auto& pl = e.p.checkpoint;
    pl.cp_seq = cp.cp_seq;
    pl.highest_seen = cp.highest_seen;
    pl.missed = static_cast<std::uint32_t>(cp.cp_seq - prev_seq - 1);
    pl.nak_count = static_cast<std::uint16_t>(
        std::min<std::size_t>(cp.naks.size(), UINT16_MAX));
    pl.flags = static_cast<std::uint8_t>((cp.any_seen ? 1u : 0u) |
                                         (cp.enforced ? 2u : 0u) |
                                         (cp.stop_go ? 4u : 0u) |
                                         (cp.resync_req ? 8u : 0u));
    for (std::size_t i = 0; i < pl.inline_naks(); ++i) pl.naks[i] = cp.naks[i];
    obs_.emit(e);
  }

  // Consecutive checkpoints missed before this one (cp_seq is dense, so the
  // jump is exact).  A NAK repeats in C_depth consecutive checkpoints; when
  // at least that many are missing, some NAK's every repetition may have
  // been lost with them, and the cumulative list no longer proves "not
  // NAKed".  Releasing on it could discard a damaged frame as implicitly
  // acknowledged — silent loss.  An Enforced-NAK's list spans the whole
  // resolving period, so force one before any further release.
  const std::uint64_t missed = cp.cp_seq - prev_seq - 1;
  const bool nak_list_incomplete =
      !cp.enforced && missed >= cfg_.cumulation_depth;

  if (mode_ == Mode::kNormal) {
    if (nak_list_incomplete && !outstanding_.empty()) {
      process_naks(cp);
      enter_enforced_recovery(obs::RecoveryReason::kNakGapAmbiguity);
    } else {
      process_naks(cp);
      sweep_outstanding(cp);
    }
  } else {  // kEnforcedRecovery
    if (cp.enforced) {
      // Enforced-NAK / Resolving Command: resolves every outstanding frame
      // (its NAK list spans the whole resolving period) and ends recovery.
      process_naks(cp);
      sweep_outstanding(cp);
      sim_.cancel(failure_timer_);
      failure_timer_ = 0;
      mode_ = Mode::kNormal;
      emit_mode_change(Mode::kEnforcedRecovery, Mode::kNormal,
                       obs::RecoveryReason::kEnforcedNakResolved);
    } else {
      // Checkpoint Recovery stays allowed during enforced recovery, but no
      // releases and no new I-frames (Section 3.2).
      process_naks(cp);
      if (cfg_.retry_request_nak &&
          sim_.now() >= request_sent_at_ + cfg_.max_rtt) {
        send_request_nak();
      }
    }
  }

  apply_flow_control(cp.stop_go);

  // Implausible-ack anomaly: a streak of checkpoints whose highest-seen
  // references counters never issued means one side's sequence state is
  // corrupt beyond what the per-checkpoint guard in sweep_outstanding can
  // absorb — re-anchor.
  if (cfg_.resync_enabled && cfg_.implausible_ack_threshold > 0 &&
      implausible_streak_ >= cfg_.implausible_ack_threshold &&
      mode_ != Mode::kResyncing && mode_ != Mode::kFailed) {
    implausible_streak_ = 0;
    initiate_resync(obs::RecoveryReason::kImplausibleAck);
  }

  if (mode_ == Mode::kNormal) arm_checkpoint_timer();
  note_buffer_change();
  try_send();
}

void LamsSender::process_naks(const frame::CheckpointFrame& cp) {
  if (next_ctr_ == 0) return;  // nothing ever sent
  for (const frame::Seq wire : cp.naks) {
    const std::uint64_t ctr = seqspace_.unwrap(wire, next_ctr_ - 1);
    const Pending* held = outstanding_.find(ctr);
    if (held == nullptr) {
      // Already retransmitted under a newer number (the NAK repeats
      // C_depth times by design) — "assumed to be retransmitted already".
      continue;
    }
    emit_frame_event(obs::EventKind::kRetransmitQueued, ctr, *held);
    retx_queue_.push_back(outstanding_.take(ctr));
  }
}

void LamsSender::sweep_outstanding(const frame::CheckpointFrame& cp) {
  if (outstanding_.empty() || next_ctr_ == 0) return;
  // Release decisions reason against next_ctr_; a live slot holding a
  // counter at or above it means the sequence space is corrupt and every
  // unwrap below is unreliable — releasing on one could discard undelivered
  // frames as implicitly acknowledged.  Skip this checkpoint's sweep and
  // audit immediately (which reports the trip and, when enabled, starts the
  // RESYNC that repairs the space).  Unreachable in a sane run.
  for (const std::uint64_t ctr : outstanding_.ctrs()) {
    if (ctr >= next_ctr_) {
      run_self_audit();
      return;
    }
  }
  bool any_seen = cp.any_seen;
  const std::uint64_t high =
      any_seen ? seqspace_.unwrap(cp.highest_seen, next_ctr_ - 1) : 0;
  if (any_seen && high > next_ctr_ - 1) {
    // Implausible: the receiver cannot have accepted a number the sender
    // has not issued.  This happens when the checkpoint's highest-seen is
    // stale by more than half the numbering size (a long all-husk forward
    // burst keeps the receiver's highest pinned while next_ctr_ advances),
    // so the nearest-to-reference unwrap lands a cycle too far forward.
    // Releasing against it would discard undelivered frames as implicitly
    // acknowledged — silent loss.  Skip the release rule for this
    // checkpoint; the provably-undelivered retransmission rule below is
    // reference-free and stays in force.
    any_seen = false;
    ++implausible_streak_;
  } else if (any_seen) {
    implausible_streak_ = 0;
  }

  // Hot scan: only the packed (counter, arrival) arrays are touched; the
  // matched counters then act in ascending order, so release and
  // retransmission events come out oldest-first deterministically.
  std::vector<std::uint64_t> release;
  std::vector<std::uint64_t> undelivered;
  const auto& ctrs = outstanding_.ctrs();
  const auto& arrivals = outstanding_.arrivals();
  for (std::size_t i = 0; i < ctrs.size(); ++i) {
    if (any_seen && ctrs[i] <= high) {
      // The receiver saw a later frame before generating this checkpoint;
      // had this one arrived damaged its gap-NAK would be in the list and
      // process_naks would have claimed it.  Implicitly acknowledged.
      release.push_back(ctrs[i]);
    } else if (arrivals[i] + cfg_.release_margin <= cp.generated_at) {
      // It provably reached the receiver before this checkpoint, yet the
      // highest-seen number never got there: it arrived unreadable (e.g.
      // the tail frame of a burst).  Retransmit under a new number.
      undelivered.push_back(ctrs[i]);
    }
    // Otherwise: still in flight relative to this checkpoint; keep holding.
  }
  std::sort(release.begin(), release.end());
  std::sort(undelivered.begin(), undelivered.end());

  for (const std::uint64_t ctr : release) {
    Pending held = outstanding_.take(ctr);
    const Time held_for = sim_.now() - held.first_tx;
    if (stats_) stats_->holding_time_s.add(held_for.sec());
    emit_frame_event(obs::EventKind::kFrameReleased, ctr, held,
                     held_for.ps());
    ++resolved_;
  }
  for (const std::uint64_t ctr : undelivered) {
    Pending held = outstanding_.take(ctr);
    emit_frame_event(obs::EventKind::kRetransmitQueued, ctr, held);
    retx_queue_.push_back(std::move(held));
  }
}

void LamsSender::arm_checkpoint_timer() {
  sim_.cancel(checkpoint_timer_);
  checkpoint_timer_ =
      sim_.schedule_in(cfg_.checkpoint_timeout(), [this] { on_checkpoint_silence(); });
  emit_timer(obs::EventKind::kTimerArmed, obs::TimerId::kCheckpointTimer,
             sim_.now() + cfg_.checkpoint_timeout());
}

void LamsSender::on_checkpoint_silence() {
  checkpoint_timer_ = 0;
  if (mode_ != Mode::kNormal) return;
  emit_timer(obs::EventKind::kTimerFired, obs::TimerId::kCheckpointTimer);
  enter_enforced_recovery(obs::RecoveryReason::kCheckpointSilence);
}

void LamsSender::enter_enforced_recovery(obs::RecoveryReason reason) {
  // Recoverable only if the expected response fits in the remaining link
  // lifetime (Section 3.2).
  if (cfg_.link_deadline &&
      sim_.now() + cfg_.failure_timeout() > *cfg_.link_deadline) {
    declare_failed(obs::RecoveryReason::kLifetimeExhausted);
    return;
  }
  const Mode from = mode_;
  mode_ = Mode::kEnforcedRecovery;
  emit_mode_change(from, mode_, reason);
  send_request_nak();
  sim_.cancel(failure_timer_);
  failure_timer_ =
      sim_.schedule_in(cfg_.failure_timeout(), [this] { on_failure_timeout(); });
  emit_timer(obs::EventKind::kTimerArmed, obs::TimerId::kFailureTimer,
             sim_.now() + cfg_.failure_timeout());
}

void LamsSender::send_request_nak() {
  frame::Frame f;
  f.body = frame::RequestNakFrame{++request_token_};
  if (stats_) ++stats_->control_tx;
  ++request_naks_;
  request_sent_at_ = sim_.now();
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameSent);
    e.p.frame = {request_token_, 0, 0, 1, 0};
    obs_.emit(e);
  }
  out_.send(std::move(f));
}

void LamsSender::on_failure_timeout() {
  failure_timer_ = 0;
  if (mode_ != Mode::kEnforcedRecovery) return;
  emit_timer(obs::EventKind::kTimerFired, obs::TimerId::kFailureTimer);
  if (cfg_.resync_enabled) {
    // Enforced recovery failed inside its own budget: either the feedback
    // channel is being destroyed or an endpoint's state is wedged — both are
    // exactly what the RESYNC handshake re-anchors.  Teardown still follows,
    // but only after the bounded RESYNC retries also come up empty.
    initiate_resync(obs::RecoveryReason::kFailureTimeout);
    return;
  }
  declare_failed(obs::RecoveryReason::kFailureTimeout);
}

void LamsSender::declare_failed(obs::RecoveryReason reason) {
  const Mode from = mode_;
  mode_ = Mode::kFailed;
  emit_mode_change(from, mode_, reason);
  sim_.cancel(checkpoint_timer_);
  sim_.cancel(failure_timer_);
  sim_.cancel(pace_timer_);
  sim_.cancel(audit_timer_);
  sim_.cancel(watchdog_timer_);
  sim_.cancel(resync_timer_);
  checkpoint_timer_ = failure_timer_ = pace_timer_ = 0;
  audit_timer_ = watchdog_timer_ = resync_timer_ = 0;
  if (on_failed_) on_failed_();
}

void LamsSender::requeue_unresolved() {
  // Unresolved traffic survives the reset, oldest first.
  std::vector<std::uint64_t> ctrs = outstanding_.sorted_ctrs();
  // Prepend in reverse so the final order is: outstanding (by counter),
  // then previously queued retransmissions, then new traffic.
  for (auto it = retx_queue_.rbegin(); it != retx_queue_.rend(); ++it) {
    new_queue_.push_front(Pending{it->packet, Time{}, 0});
  }
  for (auto it = ctrs.rbegin(); it != ctrs.rend(); ++it) {
    new_queue_.push_front(Pending{outstanding_.find(*it)->packet, Time{}, 0});
  }
  outstanding_.clear();
  retx_queue_.clear();
}

void LamsSender::reset_session() {
  requeue_unresolved();
  sim_.cancel(checkpoint_timer_);
  sim_.cancel(failure_timer_);
  sim_.cancel(pace_timer_);
  sim_.cancel(resync_timer_);
  checkpoint_timer_ = failure_timer_ = pace_timer_ = resync_timer_ = 0;
  next_ctr_ = 0;
  got_any_cp_ = false;
  last_cp_seq_ = 0;
  implausible_streak_ = 0;
  mode_ = Mode::kNormal;
  next_send_allowed_ = Time{};
  note_buffer_change();
}

std::vector<sim::Packet> LamsSender::take_unresolved() {
  std::vector<sim::Packet> out;
  out.reserve(sending_buffer_depth());
  // Outstanding first (oldest traffic), ordered by transmission counter.
  for (const std::uint64_t ctr : outstanding_.sorted_ctrs()) {
    out.push_back(outstanding_.find(ctr)->packet);
  }
  outstanding_.clear();
  for (const Pending& p : retx_queue_) out.push_back(p.packet);
  retx_queue_.clear();
  for (const Pending& p : new_queue_) out.push_back(p.packet);
  new_queue_.clear();
  note_buffer_change();
  return out;
}

void LamsSender::apply_flow_control(bool stop) {
  if (stop) {
    rate_factor_ = std::max(cfg_.min_rate_factor, rate_factor_ * cfg_.stop_decrease);
  } else if (rate_factor_ < 1.0) {
    rate_factor_ = std::min(1.0, rate_factor_ + cfg_.go_increase);
  }
}

// ---------------------------------------------------------------------------
// Self-stabilization: audit, watchdog, RESYNC handshake (docs/PROTOCOL.md).

std::size_t LamsSender::run_self_audit() {
  if (mode_ == Mode::kFailed) return 0;
  std::size_t trips = 0;
  const auto trip = [&](obs::AuditCheck check, std::uint64_t a,
                        std::uint64_t b) {
    ++trips;
    ++audit_trips_;
    if (obs_.active()) {
      obs::Event e = make_event(obs::EventKind::kSelfAuditFailed);
      e.p.audit = {check, a, b};
      obs_.emit(e);
    }
  };

  // Counter coherence: every in-flight slot was issued below next_ctr_.
  std::uint64_t worst_ctr = 0;
  bool ctr_bad = false;
  for (const std::uint64_t ctr : outstanding_.ctrs()) {
    if (ctr >= next_ctr_ && (!ctr_bad || ctr > worst_ctr)) {
      ctr_bad = true;
      worst_ctr = ctr;
    }
  }
  if (ctr_bad) trip(obs::AuditCheck::kSenderCtrCoherence, worst_ctr, next_ctr_);

  // Window bound: the unresolved population (in flight plus NAKed awaiting
  // renumbering) never exceeds modulus/2 — try_send enforces it on issue.
  const std::size_t unresolved = outstanding_.size() + retx_queue_.size();
  if (unresolved > cfg_.numbering_window()) {
    trip(obs::AuditCheck::kSenderWindowBound, unresolved,
         cfg_.numbering_window());
  }

  // Checkpoint tracking: cp_seq starts at 1 on the wire, so "saw one with
  // sequence zero" is unreachable.
  if (got_any_cp_ && last_cp_seq_ == 0) {
    trip(obs::AuditCheck::kSenderCpTracking, last_cp_seq_, 0);
  }

  // Timer coherence: enforced recovery without a live failure timer would
  // hang forever — the mode is entered and left only around that timer.
  if (mode_ == Mode::kEnforcedRecovery && !sim_.pending(failure_timer_)) {
    trip(obs::AuditCheck::kSenderTimerCoherence,
         static_cast<std::uint64_t>(failure_timer_), 0);
  }

  // Pacing sanity: the Stop-Go gate advances by at most one serialization
  // time per send; a gate beyond a whole failure budget is stuck state.
  if (next_send_allowed_ > sim_.now() + cfg_.failure_timeout()) {
    trip(obs::AuditCheck::kSenderPacingStuck,
         static_cast<std::uint64_t>(next_send_allowed_.ps()),
         static_cast<std::uint64_t>(sim_.now().ps()));
  }

  if (trips > 0 && cfg_.resync_enabled && mode_ != Mode::kResyncing) {
    initiate_resync(obs::RecoveryReason::kSelfAuditFailure);
  }
  return trips;
}

void LamsSender::on_audit_tick() {
  audit_timer_ = 0;
  if (mode_ == Mode::kFailed) return;
  audit_timer_ =
      sim_.schedule_in(cfg_.self_audit_period, [this] { on_audit_tick(); });
  run_self_audit();
}

void LamsSender::on_watchdog() {
  watchdog_timer_ = 0;
  if (mode_ == Mode::kFailed) return;
  // Stalled: unresolved traffic exists yet a whole period produced not one
  // release.  The ordinary checkpoint/failure timers get the first try (the
  // period should exceed failure_timeout()); this net catches wedges those
  // timers cannot see, e.g. a corrupted pacing gate or a husk-pinned
  // receiver whose checkpoints keep arriving but never cover anything.
  //
  // Two consecutive stalled observations are required before firing: a single
  // tick only proves no release since the *previous* tick, which may have
  // sampled an idle sender — traffic admitted just before this tick would
  // look instantly wedged and a spurious RESYNC would re-deliver every
  // delivered-but-unreleased frame.  Back-to-back strikes prove a full busy
  // period with zero progress (detection latency <= two periods, which is
  // what callers budget for).
  const bool stalled = !idle() && resolved_ == watchdog_last_resolved_ &&
                       mode_ != Mode::kResyncing;
  watchdog_last_resolved_ = resolved_;
  watchdog_timer_ =
      sim_.schedule_in(cfg_.resync_watchdog, [this] { on_watchdog(); });
  if (!stalled) {
    watchdog_strike_ = false;
    return;
  }
  if (!watchdog_strike_) {
    watchdog_strike_ = true;
    return;
  }
  watchdog_strike_ = false;
  if (cfg_.resync_enabled) {
    emit_timer(obs::EventKind::kTimerFired, obs::TimerId::kWatchdogTimer);
    initiate_resync(obs::RecoveryReason::kProgressWatchdog);
  }
}

void LamsSender::initiate_resync(obs::RecoveryReason reason) {
  if (!cfg_.resync_enabled || mode_ == Mode::kResyncing ||
      mode_ == Mode::kFailed) {
    return;
  }
  const Mode from = mode_;
  mode_ = Mode::kResyncing;
  resync_reason_ = reason;
  resync_attempt_ = 0;
  ++resync_token_;
  pending_resync_epoch_ = expected_epoch_ + 1;
  if (pending_resync_epoch_ == 0) pending_resync_epoch_ = 1;  // 0 = "no session"
  // Adopting the fresh epoch immediately kills the old sequence space: every
  // pre-resync checkpoint now drops in handle_checkpoint's epoch filter, so
  // nothing stale can be misread against the restarted numbering.
  expected_epoch_ = pending_resync_epoch_;
  sim_.cancel(checkpoint_timer_);
  sim_.cancel(failure_timer_);
  sim_.cancel(pace_timer_);
  checkpoint_timer_ = failure_timer_ = pace_timer_ = 0;
  emit_mode_change(from, mode_, reason);
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kResyncInitiated);
    e.p.resync = {resync_token_, pending_resync_epoch_, 0, reason};
    obs_.emit(e);
  }
  send_resync();
}

void LamsSender::send_resync() {
  ++resync_attempt_;
  if (resync_attempt_ > cfg_.max_resync_attempts) {
    // Bounded-retry teardown: the peer never acknowledged under the new
    // epoch, so recovery is hopeless — declare the link failed cleanly and
    // let the network layer reroute the residue (take_unresolved).
    declare_failed(obs::RecoveryReason::kResyncExhausted);
    return;
  }
  frame::Frame f;
  f.body = frame::ResyncFrame{resync_token_, pending_resync_epoch_};
  if (stats_) ++stats_->control_tx;
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameSent);
    e.p.frame = {resync_token_, 0, resync_attempt_, 1, 0};
    obs_.emit(e);
  }
  out_.send(std::move(f));
  // Capped exponential backoff: 1x, 2x, 4x, then 8x per further attempt
  // (mirrored by LamsConfig::resync_budget()).
  const std::uint32_t shift = std::min(resync_attempt_ - 1, 3u);
  const Time delay =
      cfg_.effective_resync_backoff() * static_cast<std::int64_t>(1u << shift);
  resync_timer_ = sim_.schedule_in(delay, [this] { on_resync_timer(); });
  emit_timer(obs::EventKind::kTimerArmed, obs::TimerId::kResyncTimer,
             sim_.now() + delay);
}

void LamsSender::on_resync_timer() {
  resync_timer_ = 0;
  if (mode_ != Mode::kResyncing) return;
  emit_timer(obs::EventKind::kTimerFired, obs::TimerId::kResyncTimer);
  send_resync();
}

void LamsSender::handle_resync_ack(const frame::ResyncAckFrame& ack) {
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameReceived);
    e.p.frame = {ack.token, 0, 0, 1, 0};
    obs_.emit(e);
  }
  if (mode_ != Mode::kResyncing) return;  // duplicate ack, episode over
  if (ack.token != resync_token_ || ack.epoch != pending_resync_epoch_) return;
  complete_resync();
}

void LamsSender::complete_resync() {
  sim_.cancel(resync_timer_);
  resync_timer_ = 0;
  // Re-anchor: numbering restarts at zero under the new epoch and every
  // unresolved frame goes out again as a fresh submission.  Frames the old
  // epoch did deliver but never release may be re-sent — bounded duplication
  // during convergence; the destination tracker de-duplicates.
  requeue_unresolved();
  next_ctr_ = 0;
  got_any_cp_ = false;
  last_cp_seq_ = 0;
  implausible_streak_ = 0;
  next_send_allowed_ = Time{};
  ++resyncs_completed_;
  mode_ = Mode::kNormal;
  emit_mode_change(Mode::kResyncing, Mode::kNormal,
                   obs::RecoveryReason::kResyncCompleted);
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kResyncCompleted);
    e.p.resync = {resync_token_, pending_resync_epoch_, resync_attempt_,
                  resync_reason_};
    obs_.emit(e);
  }
  note_buffer_change();
  try_send();
}

// ---------------------------------------------------------------------------
// State-corruption hooks (verif::StateCorruptor).  Verification-only.

std::vector<frame::PacketId> LamsSender::outstanding_ids() const {
  const std::vector<std::uint64_t> ctrs = outstanding_.sorted_ctrs();
  std::vector<frame::PacketId> ids;
  ids.reserve(ctrs.size());
  for (const std::uint64_t c : ctrs) {
    ids.push_back(outstanding_.find(c)->packet.id);
  }
  return ids;
}

void LamsSender::corrupt_warp_next_ctr(std::int64_t delta) {
  if (mode_ == Mode::kFailed) return;
  if (delta >= 0) {
    next_ctr_ += static_cast<std::uint64_t>(delta);
  } else {
    const std::uint64_t back = static_cast<std::uint64_t>(-delta);
    next_ctr_ = back >= next_ctr_ ? 0 : next_ctr_ - back;
  }
}

frame::PacketId LamsSender::corrupt_drop_slot(std::size_t nth) {
  if (mode_ == Mode::kFailed || outstanding_.empty()) return 0;
  const std::vector<std::uint64_t> ctrs = outstanding_.sorted_ctrs();
  const Pending dropped = outstanding_.take(ctrs[nth % ctrs.size()]);
  note_buffer_change();
  return dropped.packet.id;
}

bool LamsSender::corrupt_warp_slot_arrival(std::size_t nth, Time delta) {
  if (mode_ == Mode::kFailed || outstanding_.empty()) return false;
  const std::vector<std::uint64_t> ctrs = outstanding_.sorted_ctrs();
  Time* arrival = outstanding_.arrival(ctrs[nth % ctrs.size()]);
  *arrival = *arrival + delta;
  return true;
}

void LamsSender::corrupt_cp_tracking(std::uint64_t last_cp_seq, bool got_any) {
  if (mode_ == Mode::kFailed) return;
  last_cp_seq_ = last_cp_seq;
  got_any_cp_ = got_any;
}

void LamsSender::corrupt_pacing_gate(Time until) {
  if (mode_ == Mode::kFailed) return;
  next_send_allowed_ = until;
}

const char* to_string(LamsSender::Mode m) noexcept {
  switch (m) {
    case LamsSender::Mode::kNormal: return "normal";
    case LamsSender::Mode::kEnforcedRecovery: return "enforced_recovery";
    case LamsSender::Mode::kResyncing: return "resyncing";
    case LamsSender::Mode::kFailed: return "failed";
  }
  return "?";
}

}  // namespace lamsdlc::lams

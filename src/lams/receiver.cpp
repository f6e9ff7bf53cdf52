#include "lamsdlc/lams/receiver.hpp"

#include <algorithm>
#include <utility>

namespace lamsdlc::lams {

LamsReceiver::LamsReceiver(Simulator& sim, link::FrameChannel& control_out,
                           LamsConfig cfg, sim::PacketListener* listener,
                           sim::DlcStats* stats, obs::EventBus* bus)
    : sim_{sim},
      out_{control_out},
      cfg_{cfg},
      listener_{listener},
      stats_{stats},
      obs_{bus},
      seqspace_{cfg.modulus} {}

LamsReceiver::~LamsReceiver() {
  sim_.cancel(cp_timer_);
  sim_.cancel(audit_timer_);
}

obs::Event LamsReceiver::make_event(obs::EventKind k) const {
  obs::Event e;
  e.at = sim_.now();
  e.source = obs::Source::kLamsReceiver;
  e.kind = k;
  return e;
}

void LamsReceiver::emit_drop(obs::DropCause cause, std::uint8_t control,
                             std::uint64_t ctr) {
  if (!obs_.active()) return;
  obs::Event e = make_event(obs::EventKind::kFrameDropped);
  e.p.drop = {cause, control, ctr};
  obs_.emit(e);
}

void LamsReceiver::note_recv_buffer() {
  if (!obs_.active()) return;
  obs::Event e = make_event(obs::EventKind::kBufferOccupancy);
  e.p.buffer = {obs::BufferId::kRecvBuffer,
                static_cast<std::uint32_t>(processing_)};
  obs_.emit(e);
}

void LamsReceiver::start() {
  if (running_) return;
  running_ = true;
  cp_timer_ = sim_.schedule_in(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
  if (!cfg_.self_audit_period.is_zero() && !sim_.pending(audit_timer_)) {
    audit_timer_ =
        sim_.schedule_in(cfg_.self_audit_period, [this] { on_audit_tick(); });
  }
}

void LamsReceiver::stop() {
  running_ = false;
  sim_.cancel(cp_timer_);
  cp_timer_ = 0;
  sim_.cancel(audit_timer_);
  audit_timer_ = 0;
}

void LamsReceiver::reset_session() {
  any_seen_ = false;
  highest_ctr_ = 0;
  iframe_arrivals_ = 0;
  anchor_arrival_ = 0;
  interval_naks_.clear();
  current_interval_.clear();
  history_.clear();
}

void LamsReceiver::checkpoint_tick() {
  if (!running_) return;
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kTimerFired);
    e.p.timer = {obs::TimerId::kCheckpointCadence, 0};
    obs_.emit(e);
  }
  // Close the current detection interval before reporting, so a NAK raised
  // an instant before the tick is included in this checkpoint.
  interval_naks_.push_back(std::move(current_interval_));
  current_interval_.clear();
  while (interval_naks_.size() > cfg_.cumulation_depth) {
    interval_naks_.pop_front();
  }
  emit_checkpoint(/*enforced=*/false);
  cp_timer_ = sim_.schedule_in(cfg_.checkpoint_interval, [this] { checkpoint_tick(); });
}

void LamsReceiver::emit_checkpoint(bool enforced) {
  frame::CheckpointFrame cp;
  cp.cp_seq = ++cp_seq_;
  cp.generated_at = sim_.now();
  cp.any_seen = any_seen_;
  cp.highest_seen = any_seen_ ? seqspace_.wrap(highest_ctr_) : 0;
  cp.enforced = enforced;
  cp.stop_go = processing_ > cfg_.recv_high_watermark;
  cp.epoch = epoch_;
  cp.resync_req = resync_req_;

  // Wire-safety filter: a NAK that has fallen modulus/2 or more behind the
  // highest accepted counter is no longer expressible on the wire.  The
  // sender unwraps each NAK near its newest issued number, so the wrapped
  // value of such a stale record resolves a full numbering cycle *ahead* of
  // the counter it was recorded for — and if the frame was since
  // retransmitted under a fresh number, the alias lands exactly on the fresh
  // copy in flight: a spurious retransmission and a duplicate delivery.
  // Suppressing the record is fail-safe — a frame that old is past the
  // resolving-period bound, and the sender's provably-undelivered rule and
  // failure timer still cover it.
  const std::uint64_t half = cfg_.modulus / 2;
  const auto expressible = [&](std::uint64_t ctr) {
    const bool ok = highest_ctr_ - ctr < half;
    if (!ok) ++naks_expired_;
    return ok;
  };

  if (enforced) {
    // Enforced-NAK: every unexpired NAK of the resolving period, so a
    // sender that missed an arbitrary run of checkpoints still recovers
    // every damaged frame.  `history_` alone covers this: every NAK enters
    // it the instant it enters `current_interval_`, and prune_history()
    // never prunes inside the cumulative-reporting window.
    prune_history();
    cp.naks.reserve(history_.size());
    for (const NakRecord& r : history_) {
      if (expressible(r.ctr)) cp.naks.push_back(seqspace_.wrap(r.ctr));
    }
  } else {
    // Cumulative list over the last C_depth closed intervals plus anything
    // detected in the (just-started) current one.
    for (const auto& interval : interval_naks_) {
      for (const std::uint64_t ctr : interval) {
        if (expressible(ctr)) cp.naks.push_back(seqspace_.wrap(ctr));
      }
    }
    for (const std::uint64_t ctr : current_interval_) {
      if (expressible(ctr)) cp.naks.push_back(seqspace_.wrap(ctr));
    }
  }

  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kCheckpointEmitted);
    auto& pl = e.p.checkpoint;
    pl.cp_seq = cp.cp_seq;
    pl.highest_seen = cp.highest_seen;
    pl.nak_count = static_cast<std::uint16_t>(
        std::min<std::size_t>(cp.naks.size(), 0xFFFF));
    pl.flags = static_cast<std::uint8_t>((cp.any_seen ? 1u : 0u) |
                                         (cp.enforced ? 2u : 0u) |
                                         (cp.stop_go ? 4u : 0u) |
                                         (cp.resync_req ? 8u : 0u));
    for (std::size_t i = 0; i < pl.inline_naks(); ++i) pl.naks[i] = cp.naks[i];
    obs_.emit(e);
  }

  ++cp_count_;
  if (stats_) ++stats_->control_tx;
  frame::Frame f;
  f.body = std::move(cp);
  out_.send(std::move(f));
}

void LamsReceiver::prune_history() {
  // Never prune inside the cumulative-reporting window (the current interval
  // plus C_depth closed ones): a NAK still being repeated in periodic
  // checkpoints must also appear in an Enforced-NAK, whatever retention
  // horizon the configuration asked for.
  const Time floor = cfg_.checkpoint_interval *
                     static_cast<std::int64_t>(cfg_.cumulation_depth + 1);
  const Time horizon = std::max(cfg_.effective_nak_horizon(), floor);
  while (!history_.empty() &&
         history_.front().detected_at + horizon < sim_.now()) {
    history_.pop_front();
  }
  // Counter-based floor: once a record falls modulus/2 behind the highest
  // accepted counter it can never be emitted again (emit_checkpoint's
  // wire-safety filter rejects it, and highest_ctr_ only grows), so drop
  // it.  Records are appended in counter order — the stalest is in front.
  while (!history_.empty() &&
         highest_ctr_ - history_.front().ctr >= cfg_.modulus / 2) {
    history_.pop_front();
    ++naks_expired_;
  }
}

void LamsReceiver::on_frame(frame::Frame f) {
  if (!running_) return;  // a stopped receiver is dead: no processing at all
  if (auto* in = std::get_if<frame::IFrame>(&f.body)) {
    handle_iframe(*in, f.corrupted);
    return;
  }
  if (f.corrupted) {
    if (stats_) ++stats_->control_corrupted_rx;
    emit_drop(obs::DropCause::kCorruptControl, 1, 0);
    return;
  }
  if (const auto* rq = std::get_if<frame::RequestNakFrame>(&f.body)) {
    handle_request_nak(*rq);
    return;
  }
  if (const auto* rs = std::get_if<frame::ResyncFrame>(&f.body)) {
    handle_resync(*rs);
  }
}

void LamsReceiver::handle_iframe(frame::IFrame& in, bool corrupted) {
  if (sim_.now() < resync_guard_until_) {
    // Straggler of the epoch a just-applied RESYNC killed: its number means
    // nothing under the fresh anchor, and accepting it would poison
    // highest_ctr_ so genuinely new frames look stale — silent loss.  The
    // first new-epoch frame cannot arrive inside the guard (the sender
    // quiesces for at least a round trip before sending again), so dropping
    // here is always safe.
    ++duplicates_suppressed_;
    emit_drop(obs::DropCause::kStaleSequence, 0, in.seq);
    return;
  }
  // Count the arrival *event* before any disposition (husk, congestion
  // discard, stale duplicate, good frame).  Under the paper's link model
  // (assumption 9: damage is detectable — frames arrive unreadable rather
  // than vanish) the event count tracks the sender's counter exactly, which
  // anchors the unwrap below.
  const std::uint64_t arrival_ref = iframe_arrivals_++;
  if (corrupted) {
    // Worst-case assumption: a damaged frame's header is unreadable, so the
    // receiver learns of it only through the sequence gap exposed by the
    // next good arrival (or the sender's highest-seen reasoning).
    if (stats_) ++stats_->iframe_corrupted_rx;
    if (obs_.active()) {
      obs::Event e = make_event(obs::EventKind::kFrameCorrupted);
      e.p.drop = {obs::DropCause::kWireCorruption, 0, in.seq};
      obs_.emit(e);
    }
    return;
  }
  if (processing_ >= cfg_.recv_hard_capacity) {
    // Congestion overflow: discard while Stop is being signalled (Section
    // 3.4).  Dropping before the sequence tracking makes the frame look
    // exactly like a damaged arrival, so the sender's NAK machinery
    // recovers it after the backlog drains — "minimize the losses due
    // congestion" without a new mechanism.
    ++congestion_discards_;
    emit_drop(obs::DropCause::kCongestion, 0, in.seq);
    return;
  }

  // A good arrival is NOT necessarily within m/2 of the last accepted
  // counter: at a tiny modulus a burst of husks can span whole cycles (the
  // first cycle included — the old code trusted the raw wire value of the
  // first good frame), and unwrapping near the stale highest would alias
  // the counter a multiple of m low.  The receiver would then under-NAK
  // the gap and the sender would release undelivered frames as implicitly
  // acknowledged — silent loss.  The arrival-event count carries the cycle
  // through any such burst: damage is detectable (assumption 9), so every
  // counter issued since the last accepted frame left an arrival event
  // behind, and the expected counter of this frame is the last accepted
  // counter advanced by the events seen since.  Omissions or duplicates
  // (outside the paper's link model) only disturb the anchor until the
  // next accepted frame re-bases it.
  const std::uint64_t ref = highest_ctr_ + (arrival_ref - anchor_arrival_);
  const std::uint64_t ctr = seqspace_.unwrap(in.seq, ref);
  if (any_seen_ && ctr <= highest_ctr_) {
    // A non-increasing counter is a wire-level duplicate or a late reordered
    // frame; either way the frame was already NAKed or delivered, so it must
    // not go upward again.
    ++duplicates_suppressed_;
    emit_drop(obs::DropCause::kStaleSequence, 0, ctr);
    if (cfg_.suppress_duplicates) return;
    // Ablation path (tests only): deliver the stale frame anyway, without
    // touching the sequence tracking, to prove the invariant checker notices.
    deliver_up(in, ctr);
    return;
  }

  // Every hole below the new highest number is a frame that arrived
  // unreadable: NAK each exactly once.
  const std::uint64_t gap_from = any_seen_ ? highest_ctr_ + 1 : 0;
  for (std::uint64_t missing = gap_from; missing < ctr; ++missing) {
    current_interval_.push_back(missing);
    history_.push_back(NakRecord{missing, sim_.now()});
    ++naks_generated_;
    if (obs_.active()) {
      obs::Event e = make_event(obs::EventKind::kNakGenerated);
      e.p.nak = {missing};
      obs_.emit(e);
    }
  }
  highest_ctr_ = ctr;
  anchor_arrival_ = arrival_ref;
  any_seen_ = true;

  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameReceived);
    e.p.frame = {ctr, in.packet_id, 0, 0, 0};
    obs_.emit(e);
  }
  deliver_up(in, ctr);
}

void LamsReceiver::deliver_up(frame::IFrame& in, std::uint64_t ctr) {
  // Forward upward after t_proc; no resequencing hold (Section 3.3).
  ++processing_;
  if (stats_) {
    stats_->recv_buffer.update(sim_.now(), static_cast<double>(processing_));
  }
  note_recv_buffer();
  std::uint32_t slot;
  if (up_free_.empty()) {
    slot = static_cast<std::uint32_t>(up_pool_.size());
    up_pool_.emplace_back();
  } else {
    slot = up_free_.back();
    up_free_.pop_back();
  }
  UpSlot& s = up_pool_[slot];
  s.packet.id = in.packet_id;
  s.packet.bytes = in.payload_bytes;
  s.packet.created_at = Time{};
  s.packet.message_id = 0;
  s.packet.msg_index = 0;
  s.packet.msg_count = 1;
  s.packet.data = std::move(in.payload);  // on_frame owns the frame
  s.ctr = ctr;
  sim_.schedule_in(cfg_.t_proc, [this, slot] { finish_deliver_up(slot); });
}

void LamsReceiver::finish_deliver_up(std::uint32_t slot) {
  sim::Packet p = std::move(up_pool_[slot].packet);
  const std::uint64_t ctr = up_pool_[slot].ctr;
  --processing_;
  if (stats_) {
    stats_->recv_buffer.update(sim_.now(), static_cast<double>(processing_));
  }
  note_recv_buffer();
  if (obs_.active()) {
    // The delivery leaf of the packet's trace span tree: the instant the
    // payload leaves the DLC upward, after the t_proc pipeline.
    obs::Event e = make_event(obs::EventKind::kPacketDelivered);
    e.p.frame = {ctr, p.id, 0, 0, 0};
    obs_.emit(e);
  }
  if (listener_) listener_->on_packet(p, sim_.now());
  // The packet's heap storage (if any) goes back with the slot only after
  // the listener is done with it.
  up_pool_[slot].packet = std::move(p);
  up_free_.push_back(slot);
}

void LamsReceiver::handle_request_nak(const frame::RequestNakFrame& rq) {
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameReceived);
    e.p.frame = {rq.token, 0, 0, 1, 0};
    obs_.emit(e);
  }
  emit_checkpoint(/*enforced=*/true);
}

// ---------------------------------------------------------------------------
// Self-stabilization: RESYNC application, audit, corruption hooks.

void LamsReceiver::handle_resync(const frame::ResyncFrame& rs) {
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameReceived);
    e.p.frame = {rs.token, 0, 0, 1, 0};
    obs_.emit(e);
  }
  if (rs.epoch < epoch_) return;  // leftover of a superseded episode/session
  if (rs.epoch > epoch_) {
    // Fresh episode: drop every trace of the dead sequence space and adopt
    // the new epoch.  cp_seq_ deliberately keeps counting across the
    // re-anchor, so the sender's checkpoint-staleness filter needs no
    // special case.
    reset_session();
    epoch_ = rs.epoch;
    resync_req_ = false;
    resync_guard_until_ = sim_.now() + cfg_.release_margin;
    ++resyncs_applied_;
    if (running_ && !sim_.pending(cp_timer_)) {
      // A stalled cadence is part of what a RESYNC repairs — the checkpoint
      // stream must flow again for the sender to finish the episode (a
      // new-epoch checkpoint completes it even if the explicit ack is lost).
      cp_timer_ = sim_.schedule_in(cfg_.checkpoint_interval,
                                   [this] { checkpoint_tick(); });
    }
    if (obs_.active()) {
      obs::Event e = make_event(obs::EventKind::kResyncCompleted);
      e.p.resync = {rs.token, rs.epoch, 0,
                    obs::RecoveryReason::kResyncCompleted};
      obs_.emit(e);
    }
  }
  // Acknowledge on the reverse channel; a duplicate RESYNC of the current
  // epoch means the previous ack was lost, so always re-ack.
  frame::Frame f;
  f.body = frame::ResyncAckFrame{rs.token, rs.epoch};
  if (stats_) ++stats_->control_tx;
  if (obs_.active()) {
    obs::Event e = make_event(obs::EventKind::kFrameSent);
    e.p.frame = {rs.token, 0, 0, 1, 0};
    obs_.emit(e);
  }
  out_.send(std::move(f));
}

void LamsReceiver::on_audit_tick() {
  audit_timer_ = 0;
  if (!running_) return;
  audit_timer_ =
      sim_.schedule_in(cfg_.self_audit_period, [this] { on_audit_tick(); });
  run_self_audit();
}

std::size_t LamsReceiver::run_self_audit() {
  if (!running_) return 0;
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

  // The cycle anchor records the arrival count at the last accept; it can
  // never lead the arrival count itself.
  if (anchor_arrival_ > iframe_arrivals_) {
    trip(obs::AuditCheck::kReceiverAnchorCoherence, anchor_arrival_,
         iframe_arrivals_);
  }

  // "Nothing accepted yet" with nonzero sequence state is unreachable.
  if (!any_seen_ && (highest_ctr_ != 0 || anchor_arrival_ != 0)) {
    trip(obs::AuditCheck::kReceiverSeqCoherence, highest_ctr_,
         anchor_arrival_);
  }

  // NAK records are created strictly below the counter whose acceptance
  // revealed them, so every record lies below the accepted highest.  Records
  // append in counter order — checking both ends covers the whole deque.
  if (any_seen_) {
    std::uint64_t witness = 0;
    bool nak_bad = false;
    const auto check_end = [&](std::uint64_t ctr) {
      if (ctr >= highest_ctr_ && !nak_bad) {
        nak_bad = true;
        witness = ctr;
      }
    };
    if (!history_.empty()) {
      check_end(history_.front().ctr);
      check_end(history_.back().ctr);
    }
    if (!current_interval_.empty()) {
      check_end(current_interval_.front());
      check_end(current_interval_.back());
    }
    if (nak_bad) {
      trip(obs::AuditCheck::kReceiverNakCoherence, witness, highest_ctr_);
    }
  }

  // Detection timestamps append monotonically.
  if (history_.size() >= 2 &&
      history_.back().detected_at < history_.front().detected_at) {
    trip(obs::AuditCheck::kReceiverHistoryOrder,
         static_cast<std::uint64_t>(history_.front().detected_at.ps()),
         static_cast<std::uint64_t>(history_.back().detected_at.ps()));
  }

  // Husk stall: more unaccepted arrivals since the last accept than the
  // whole numbering size means the unwrap anchor has lost the cycle — the
  // wire can no longer express where the sequence space stands.
  if (any_seen_ && iframe_arrivals_ - anchor_arrival_ > cfg_.modulus) {
    trip(obs::AuditCheck::kReceiverHuskStall,
         iframe_arrivals_ - anchor_arrival_, cfg_.modulus);
  }

  // The link is active yet no checkpoint tick is pending: the cadence died
  // and the sender is flying blind.
  if (!sim_.pending(cp_timer_)) {
    trip(obs::AuditCheck::kReceiverCadenceStall, cp_seq_, 0);
  }

  if (trips > 0 && cfg_.resync_enabled) resync_req_ = true;
  return trips;
}

// ---------------------------------------------------------------------------
// State-corruption hooks (verif::StateCorruptor).  Verification-only.

void LamsReceiver::corrupt_warp_highest(std::int64_t delta) {
  if (!running_) return;
  if (delta >= 0) {
    highest_ctr_ += static_cast<std::uint64_t>(delta);
  } else {
    const std::uint64_t back = static_cast<std::uint64_t>(-delta);
    highest_ctr_ = back >= highest_ctr_ ? 0 : highest_ctr_ - back;
  }
  any_seen_ = true;
}

void LamsReceiver::corrupt_warp_anchor(std::int64_t delta) {
  if (!running_) return;
  if (delta >= 0) {
    anchor_arrival_ += static_cast<std::uint64_t>(delta);
  } else {
    const std::uint64_t back = static_cast<std::uint64_t>(-delta);
    anchor_arrival_ = back >= anchor_arrival_ ? 0 : anchor_arrival_ - back;
  }
}

void LamsReceiver::corrupt_inject_nak(std::uint64_t ctr) {
  if (!running_) return;
  current_interval_.push_back(ctr);
  history_.push_back(NakRecord{ctr, sim_.now()});
}

void LamsReceiver::corrupt_clear_nak_state() {
  if (!running_) return;
  interval_naks_.clear();
  current_interval_.clear();
  history_.clear();
}

void LamsReceiver::corrupt_warp_cp_seq(std::int64_t delta) {
  if (!running_) return;
  if (delta >= 0) {
    cp_seq_ += static_cast<std::uint32_t>(delta);
  } else {
    const std::uint32_t back = static_cast<std::uint32_t>(-delta);
    cp_seq_ = back >= cp_seq_ ? 0 : cp_seq_ - back;
  }
}

void LamsReceiver::corrupt_stall_cadence() {
  if (!running_) return;
  sim_.cancel(cp_timer_);
  cp_timer_ = 0;
}

}  // namespace lamsdlc::lams

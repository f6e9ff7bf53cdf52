#pragma once
/// \file sender.hpp
/// \brief LAMS-DLC sender state machine.
///
/// The sender (Section 3.2):
///  - transmits I-frames whenever the link is available — there is no send
///    window; buffer control, not flow control, bounds the sending buffer;
///  - holds each transmitted frame until a checkpoint *covers* it:
///      release     — the checkpoint was generated after the frame reached
///                    the receiver, the receiver's highest-seen sequence is
///                    at or beyond it, and it is not NAKed (implicit
///                    positive acknowledgement);
///      retransmit  — it is NAKed, or the checkpoint proves it arrived
///                    unreadable (generated after arrival yet highest-seen
///                    still below it).  Retransmissions carry a *new*
///                    sequence number, which is what bounds the holding time
///                    and the numbering size;
///  - runs the checkpoint timer (C_depth · W_cp): on silence it enters
///    Enforced Recovery — sends Request-NAK, stops new I-frames (checkpoint
///    retransmissions stay allowed), starts the failure timer; an
///    Enforced-NAK resolves every outstanding frame and resumes normal
///    operation; failure-timer expiry declares the link failed;
///  - applies Stop-Go pacing from checkpoint flow-control bits.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/frame/seqspace.hpp"
#include "lamsdlc/lams/config.hpp"
#include "lamsdlc/lams/inflight.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/sim/dlc.hpp"

namespace lamsdlc::lams {

/// LAMS-DLC sending endpoint.  Attach as the sink of the *reverse* channel
/// (it consumes checkpoint traffic) and give it the *forward* channel for
/// I-frame and Request-NAK transmission.
class LamsSender final : public sim::DlcSender, public link::FrameSink {
 public:
  enum class Mode { kNormal, kEnforcedRecovery, kResyncing, kFailed };

  /// \p bus (optional) receives the typed event stream (obs/event.hpp).
  LamsSender(Simulator& sim, link::FrameChannel& data_out, LamsConfig cfg,
             sim::DlcStats* stats = nullptr, obs::EventBus* bus = nullptr);

  LamsSender(const LamsSender&) = delete;
  LamsSender& operator=(const LamsSender&) = delete;
  ~LamsSender() override;

  /// \name sim::DlcSender
  /// @{
  void submit(sim::Packet p) override;
  [[nodiscard]] std::size_t sending_buffer_depth() const override;
  [[nodiscard]] bool accepting() const override;
  [[nodiscard]] bool idle() const override;
  /// @}

  /// link::FrameSink — consumes Check-Point / Enforced-NAK commands arriving
  /// on the reverse channel.
  void on_frame(frame::Frame f) override;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// Invoked once when the failure timer expires and the link is declared
  /// failed (the DLC "informs the network layer", Section 3.2).
  void set_failure_callback(std::function<void()> cb) { on_failed_ = std::move(cb); }

  /// Invoked whenever the sending-buffer population changes (admission,
  /// release, retransmission requeue, reset).  The session/mux layers use
  /// this to observe `accepting()` edges for event-driven backpressure —
  /// a producer paused on a full buffer resumes the moment a checkpoint
  /// releases frames, with no polling.
  void set_buffer_change_callback(std::function<void()> cb) {
    on_buffer_change_ = std::move(cb);
  }

  /// Current Stop-Go pacing factor in (0, 1]; 1 = full rate.
  [[nodiscard]] double rate_factor() const noexcept { return rate_factor_; }

  /// Packets fully resolved (released after implicit acknowledgement).
  [[nodiscard]] std::uint64_t packets_resolved() const noexcept { return resolved_; }

  /// Frames transmitted and still held awaiting checkpoint release — the
  /// paper's "transparent" sending-buffer population, which the resolving
  /// period bounds (Section 3.3).  Queued-but-unsent traffic is excluded.
  [[nodiscard]] std::size_t outstanding_frames() const noexcept {
    return outstanding_.size();
  }

  /// Request-NAKs sent (enforced recoveries initiated or retried).
  [[nodiscard]] std::uint64_t request_naks_sent() const noexcept { return request_naks_; }

  /// Drain every unresolved packet (queued, awaiting retransmission, or
  /// outstanding) out of the sending buffer, in submission-ish order.
  /// Intended for the network layer after `kFailed`: the paper's sender
  /// "informs the network layer", which reroutes the residue over another
  /// link.  Frames that actually arrived before the failure may be
  /// re-delivered via the new path — the destination's resequencer/tracker
  /// de-duplicates, giving the exactly-once semantics the TR sketches for
  /// its "more recent version" of the protocol.
  [[nodiscard]] std::vector<sim::Packet> take_unresolved();

  /// \name Session support (lams/session.hpp)
  /// @{
  /// Return to a pristine pre-session state keeping the unresolved traffic
  /// queued (oldest first): numbering restarts at zero, timers stop, and
  /// the mode returns to normal.  Called by the session layer on re-init.
  void reset_session();
  /// Only checkpoints stamped with this epoch are processed (0 = no
  /// session layer); stale acknowledgements of a previous epoch would
  /// otherwise be misread against the restarted numbering.
  void set_expected_epoch(std::uint32_t e) noexcept { expected_epoch_ = e; }
  /// Epoch the sender currently expects — a RESYNC episode advances it past
  /// the session-layer value, so a re-initializing session must allocate its
  /// next epoch above this (session.cpp).
  [[nodiscard]] std::uint32_t current_epoch() const noexcept {
    return expected_epoch_;
  }
  /// @}

  /// \name Self-stabilization (docs/PROTOCOL.md "Resynchronization")
  /// @{
  /// Run every sender-side self-audit check once, right now, emitting a
  /// kSelfAuditFailed event per trip; initiates a RESYNC when any tripped
  /// and `resync_enabled`.  Returns the number of trips.  This is the body
  /// of the periodic audit tick (`self_audit_period`) and the entry point
  /// for anomaly-triggered audits; also a test hook.
  std::size_t run_self_audit();
  /// Audit trips observed so far (all checks, all causes).
  [[nodiscard]] std::uint64_t self_audit_trips() const noexcept {
    return audit_trips_;
  }
  /// RESYNC episodes completed (handshake acknowledged, pipe re-anchored).
  [[nodiscard]] std::uint64_t resyncs_completed() const noexcept {
    return resyncs_completed_;
  }
  /// @}

  /// Packet ids of every in-flight slot (transmitted, unreleased), in
  /// counter order.  Harness introspection: these are the packets a
  /// corruption injected *now* can strand, so the chaos tier snapshots them
  /// as its at-risk set.
  [[nodiscard]] std::vector<frame::PacketId> outstanding_ids() const;

  /// \name State-corruption hooks (verif::StateCorruptor)
  /// Deliberately mutate live protocol state the way a stray write or bit
  /// flip in endpoint memory would, so the chaos tier can prove the
  /// audit/RESYNC layer converges from arbitrary state.  Deterministic:
  /// slot selection is by rank in counter order, never by hash-map iteration
  /// order.  Never call these outside the verification harness.
  /// @{
  /// Warp the monotone issue counter by `delta` (clamped at zero going
  /// down).  Forward warps fake frames that were never sent; backward warps
  /// collide the counter with live in-flight slots.
  void corrupt_warp_next_ctr(std::int64_t delta);
  /// Destroy the `nth`-by-counter in-flight slot outright (state loss, not a
  /// wire loss: no NAK will ever claim it).  Returns the destroyed packet id
  /// so the harness can excuse its delivery, or 0 when nothing is in flight.
  frame::PacketId corrupt_drop_slot(std::size_t nth);
  /// Warp the `nth`-by-counter slot's expected-arrival bookkeeping by
  /// `delta` (negative = pretend it arrived long ago).  Returns false when
  /// nothing is in flight.
  bool corrupt_warp_slot_arrival(std::size_t nth, Time delta);
  /// Garble the checkpoint-tracking pair (got_any_cp / last seen cp_seq).
  void corrupt_cp_tracking(std::uint64_t last_cp_seq, bool got_any);
  /// Jam the Stop-Go pacing gate shut until `until`.
  void corrupt_pacing_gate(Time until);
  /// @}

 private:
  void try_send();
  void send_iframe(Pending p);
  void handle_checkpoint(const frame::CheckpointFrame& cp);
  void process_naks(const frame::CheckpointFrame& cp);
  void sweep_outstanding(const frame::CheckpointFrame& cp);
  void arm_checkpoint_timer();
  void on_checkpoint_silence();
  void enter_enforced_recovery(obs::RecoveryReason reason);
  void send_request_nak();
  void on_failure_timeout();
  void declare_failed(obs::RecoveryReason reason);
  void apply_flow_control(bool stop);
  void note_buffer_change();
  /// Move every outstanding/retx frame back into the new queue as fresh
  /// submissions, oldest first (shared by reset_session and RESYNC).
  void requeue_unresolved();
  void initiate_resync(obs::RecoveryReason reason);
  void send_resync();
  void on_resync_timer();
  void complete_resync();
  void handle_resync_ack(const frame::ResyncAckFrame& ack);
  void on_audit_tick();
  void on_watchdog();
  /// Event skeleton stamped with now/source; fill the payload and emit.
  [[nodiscard]] obs::Event make_event(obs::EventKind k) const;
  void emit_frame_event(obs::EventKind k, std::uint64_t ctr,
                        const Pending& p, std::int64_t holding_ps = 0);
  void emit_mode_change(Mode from, Mode to, obs::RecoveryReason reason);
  void emit_timer(obs::EventKind k, obs::TimerId id, Time deadline = {});

  Simulator& sim_;
  link::FrameChannel& out_;
  LamsConfig cfg_;
  sim::DlcStats* stats_;
  obs::Emitter obs_;
  frame::SeqSpace seqspace_;

  Mode mode_{Mode::kNormal};
  std::deque<Pending> new_queue_;   ///< Not yet transmitted.
  std::deque<Pending> retx_queue_;  ///< Awaiting renumbered retransmission.
  /// Transmitted, unreleased frames keyed by counter — SoA layout so the
  /// per-checkpoint sweep touches only the packed (counter, arrival) arrays
  /// (lams/inflight.hpp).  Sweep results act in counter order, making the
  /// release/retransmission emission order deterministic (oldest first).
  InFlightTable outstanding_;
  std::uint64_t next_ctr_{0};       ///< Monotone sequence counter.

  bool got_any_cp_{false};
  std::uint64_t last_cp_seq_{0};
  std::uint32_t expected_epoch_{0};
  EventId checkpoint_timer_{0};
  EventId failure_timer_{0};
  EventId pace_timer_{0};
  Time next_send_allowed_{};
  double rate_factor_{1.0};
  std::uint32_t request_token_{0};
  Time request_sent_at_{};

  std::uint64_t resolved_{0};
  std::uint64_t request_naks_{0};
  std::function<void()> on_failed_;
  std::function<void()> on_buffer_change_;

  /// \name Self-stabilization state
  /// @{
  EventId audit_timer_{0};
  EventId watchdog_timer_{0};
  EventId resync_timer_{0};
  std::uint32_t resync_token_{0};    ///< Episode identity on the wire.
  std::uint32_t resync_attempt_{0};  ///< Transmissions this episode, 1-based.
  std::uint32_t pending_resync_epoch_{0};
  obs::RecoveryReason resync_reason_{obs::RecoveryReason::kSelfAuditFailure};
  std::uint64_t watchdog_last_resolved_{0};
  bool watchdog_strike_{false};  ///< One stalled tick seen; fire on the next.
  std::uint32_t implausible_streak_{0};
  std::uint64_t audit_trips_{0};
  std::uint64_t resyncs_completed_{0};
  /// @}
};

/// Lowercase mode name for logs and status output ("normal", "resyncing", ...).
[[nodiscard]] const char* to_string(LamsSender::Mode m) noexcept;

}  // namespace lamsdlc::lams

#pragma once
/// \file receiver.hpp
/// \brief LAMS-DLC receiver state machine.
///
/// The receiver (Sections 3.1–3.4):
///  - forwards every good I-frame upward immediately (out-of-sequence
///    delivery is allowed, so the receiving buffer holds frames only for the
///    processing time t_proc — this is why the paper calls its size
///    "transparent");
///  - detects damaged frames by sequence gaps: retransmissions use fresh
///    numbers, so arrivals carry strictly increasing sequence counters and
///    every hole below the highest-seen number marks a frame that arrived
///    unreadable (corrupted headers are assumed unreadable — the worst
///    case);
///  - emits a Check-Point command every `checkpoint_interval` for as long as
///    the link is active, carrying the cumulative NAK list of the last
///    C_depth intervals, the highest sequence seen, and the Stop-Go bit;
///  - answers a Request-NAK immediately with an Enforced-NAK whose list
///    spans the whole resolving period (extended NAK history), acting as a
///    Resolving Command when the list is empty.

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/frame/seqspace.hpp"
#include "lamsdlc/lams/config.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/packet.hpp"

namespace lamsdlc::lams {

/// LAMS-DLC receiving endpoint.  Attach as the sink of the *forward* channel
/// and give it the *reverse* channel for checkpoint transmission.
class LamsReceiver final : public link::FrameSink {
 public:
  /// \p bus (optional) receives the typed event stream (obs/event.hpp).
  LamsReceiver(Simulator& sim, link::FrameChannel& control_out,
               LamsConfig cfg, sim::PacketListener* listener,
               sim::DlcStats* stats = nullptr, obs::EventBus* bus = nullptr);

  LamsReceiver(const LamsReceiver&) = delete;
  LamsReceiver& operator=(const LamsReceiver&) = delete;
  ~LamsReceiver() override;

  /// Start the periodic checkpoint cadence ("commands are sent by the
  /// receiver so long as the link is active").  Idempotent.
  void start();

  /// Stop sending checkpoints (link torn down / receiver failure injection).
  void stop();

  /// link::FrameSink
  void on_frame(frame::Frame f) override;

  /// Swap the upward delivery target (e.g. to chain a Resequencer).
  void set_listener(sim::PacketListener* l) noexcept { listener_ = l; }

  /// \name Session support (lams/session.hpp)
  /// @{
  /// Forget all per-session state: sequence tracking, NAK lists and
  /// history.  Called by the session layer when a new epoch initializes —
  /// the sender renumbers from zero, so stale tracking must go.
  void reset_session();
  /// Epoch stamped into every outgoing checkpoint so the sender can discard
  /// acknowledgements left over from a previous session (0 = no sessions).
  void set_epoch(std::uint32_t e) noexcept { epoch_ = e; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// @}

  /// \name Self-stabilization (docs/PROTOCOL.md "Resynchronization")
  /// @{
  /// Run every receiver-side self-audit check once, right now, emitting a
  /// kSelfAuditFailed event per trip.  When any tripped and `resync_enabled`,
  /// raises the resync-request flag that rides the next checkpoints (wire
  /// flag bit 3) until the sender's RESYNC re-anchors this end.  Returns the
  /// number of trips.  Body of the periodic audit tick; also a test hook.
  std::size_t run_self_audit();
  /// True while this end is asking the sender for a RESYNC.
  [[nodiscard]] bool resync_requested() const noexcept { return resync_req_; }
  /// Audit trips observed so far (all checks).
  [[nodiscard]] std::uint64_t self_audit_trips() const noexcept {
    return audit_trips_;
  }
  /// RESYNC frames applied (fresh epochs adopted).
  [[nodiscard]] std::uint64_t resyncs_applied() const noexcept {
    return resyncs_applied_;
  }
  /// @}

  /// \name State-corruption hooks (verif::StateCorruptor)
  /// Deliberately mutate live sequence-tracking state the way a stray write
  /// in endpoint memory would.  Never call these outside the verification
  /// harness.
  /// @{
  /// Warp the highest accepted counter by `delta` (clamped at zero); marks
  /// the sequence space as populated.
  void corrupt_warp_highest(std::int64_t delta);
  /// Warp the arrival-count cycle anchor by `delta` (clamped at zero).
  void corrupt_warp_anchor(std::int64_t delta);
  /// Plant a bogus NAK record for `ctr` in both the interval list and the
  /// Enforced-NAK history.
  void corrupt_inject_nak(std::uint64_t ctr);
  /// Destroy all NAK state (interval lists and history).
  void corrupt_clear_nak_state();
  /// Warp the checkpoint sequence counter by `delta` (clamped at zero).
  void corrupt_warp_cp_seq(std::int64_t delta);
  /// Kill the checkpoint cadence timer while the link stays active.
  void corrupt_stall_cadence();
  /// @}

  /// Checkpoints emitted so far (both periodic and enforced).
  [[nodiscard]] std::uint64_t checkpoints_sent() const noexcept { return cp_count_; }

  /// NAKs generated so far (distinct damaged frames detected).
  [[nodiscard]] std::uint64_t naks_generated() const noexcept { return naks_generated_; }

  /// Frames currently inside the processing pipeline (receiving buffer).
  [[nodiscard]] std::size_t recv_buffer_depth() const noexcept { return processing_; }

  /// Good frames dropped because the receiving buffer was at its hard
  /// capacity (congestion discard, Section 3.4).
  [[nodiscard]] std::uint64_t congestion_discards() const noexcept {
    return congestion_discards_;
  }

  /// Arrivals with a non-increasing sequence counter that were discarded
  /// (wire-level duplicates or late reordered frames) — each one is a
  /// duplicate client delivery the protocol prevented.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const noexcept {
    return duplicates_suppressed_;
  }

  /// Every I-frame arrival event seen this session, readable or not
  /// (corrupted husks, congestion discards, stale duplicates, good frames).
  /// Anchors sequence unwrapping through husk bursts — see handle_iframe.
  [[nodiscard]] std::uint64_t iframe_arrivals() const noexcept {
    return iframe_arrivals_;
  }

  /// NAK records suppressed (at checkpoint emission) or expired (from the
  /// Enforced-NAK history) because they fell modulus/2 or more behind the
  /// highest accepted counter — the wrapped number would unwrap, at the
  /// sender, a full cycle ahead of the frame it was recorded for (see
  /// emit_checkpoint's wire-safety filter).
  [[nodiscard]] std::uint64_t naks_expired() const noexcept {
    return naks_expired_;
  }

 private:
  struct NakRecord {
    std::uint64_t ctr;
    Time detected_at;
  };

  void handle_iframe(const frame::IFrame& in, bool corrupted);
  void deliver_up(const frame::IFrame& in, std::uint64_t ctr);
  void finish_deliver_up(std::uint32_t slot);
  void handle_request_nak(const frame::RequestNakFrame& rq);
  void handle_resync(const frame::ResyncFrame& rs);
  void emit_checkpoint(bool enforced);
  void checkpoint_tick();
  void on_audit_tick();
  void prune_history();
  /// Event skeleton stamped with now/source; fill the payload and emit.
  [[nodiscard]] obs::Event make_event(obs::EventKind k) const;
  void emit_drop(obs::DropCause cause, std::uint8_t control,
                 std::uint64_t ctr);
  void note_recv_buffer();

  Simulator& sim_;
  link::FrameChannel& out_;
  LamsConfig cfg_;
  sim::PacketListener* listener_;
  sim::DlcStats* stats_;
  obs::Emitter obs_;
  frame::SeqSpace seqspace_;

  bool running_{false};
  EventId cp_timer_{0};
  std::uint32_t cp_seq_{0};
  std::uint32_t epoch_{0};

  /// \name Self-stabilization state
  /// @{
  EventId audit_timer_{0};
  bool resync_req_{false};  ///< Rides outgoing checkpoints as wire flag bit 3.
  /// Until this instant, arriving I-frames are stragglers of the epoch a
  /// just-applied RESYNC killed (fault-jitter reordering past the RESYNC on
  /// the otherwise-FIFO forward channel) — dropped without touching the
  /// fresh sequence anchor.
  Time resync_guard_until_{};
  std::uint64_t audit_trips_{0};
  std::uint64_t resyncs_applied_{0};
  /// @}

  bool any_seen_{false};
  std::uint64_t highest_ctr_{0};
  std::uint64_t iframe_arrivals_{0};
  /// Value of `iframe_arrivals_` when `highest_ctr_` was last accepted; the
  /// pair anchors every unwrap at the counter the link model predicts for
  /// the current arrival (see handle_iframe).
  std::uint64_t anchor_arrival_{0};

  /// Per-interval NAK lists; the cumulative checkpoint takes the union of
  /// the most recent C_depth of them (including the in-progress interval).
  std::deque<std::vector<std::uint64_t>> interval_naks_;
  std::vector<std::uint64_t> current_interval_;

  /// Extended history backing Enforced-NAK, pruned by time.
  std::deque<NakRecord> history_;

  std::size_t processing_{0};  ///< Frames inside the t_proc pipeline.

  /// Slot pool for packets riding the t_proc pipeline: the scheduled
  /// callback captures only {this, slot}, which fits the simulator's inline
  /// callback storage, and a recycled slot reuses its payload vector's
  /// capacity — the steady-state delivery path allocates nothing.
  struct UpSlot {
    sim::Packet packet;
    std::uint64_t ctr = 0;
  };
  std::vector<UpSlot> up_pool_;
  std::vector<std::uint32_t> up_free_;

  std::uint64_t cp_count_{0};
  std::uint64_t naks_generated_{0};
  std::uint64_t congestion_discards_{0};
  std::uint64_t duplicates_suppressed_{0};
  std::uint64_t naks_expired_{0};
};

}  // namespace lamsdlc::lams

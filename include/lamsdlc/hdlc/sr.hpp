#pragma once
/// \file sr.hpp
/// \brief Selective-repeat HDLC baseline (checkpoint-mode window operation).
///
/// This is the comparison protocol of Section 4.  Its behaviour follows the
/// paper's model exactly:
///  - the sender transmits a window of up to W I-frames (the *transmission
///    period*), setting the P bit on the last frame of the burst;
///  - the receiver delivers strictly in sequence, holding out-of-order
///    frames (its buffer must reach the window size — the in-sequence
///    constraint at work); when the P frame arrives it answers with either
///      RR(F)            — every frame of the window arrived: the final
///                         positive acknowledgement that opens new credit, or
///      SREJ(F) + list   — selective reject of each missing frame with a
///                         cumulative N(R);
///  - each *retransmission period* resends the rejected frames (same
///    sequence numbers — HDLC may not renumber, which is what makes its
///    holding time and numbering unbounded), again with P on the last;
///  - a lost response (probability P_C) is recovered by the timeout
///    t_out = R + alpha, after which every unacknowledged frame is resent.
///
/// New I-frames are admitted only when the window closes, reproducing the
/// stop-and-resolve structure whose cost the analysis charges to SR-HDLC.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/frame/seqspace.hpp"
#include "lamsdlc/hdlc/config.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/packet.hpp"

namespace lamsdlc::hdlc {

/// SR-HDLC sending endpoint.  Sink of the reverse channel.
class SrSender final : public sim::DlcSender, public link::FrameSink {
 public:
  SrSender(Simulator& sim, link::SimplexChannel& data_out, HdlcConfig cfg,
           sim::DlcStats* stats = nullptr);
  ~SrSender() override;

  SrSender(const SrSender&) = delete;
  SrSender& operator=(const SrSender&) = delete;

  void submit(sim::Packet p) override;
  [[nodiscard]] std::size_t sending_buffer_depth() const override;
  [[nodiscard]] bool accepting() const override;
  [[nodiscard]] bool idle() const override;

  void on_frame(frame::Frame f) override;

  /// Timeout-recovery episodes (every expiry of t_out).
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Windows fully acknowledged.
  [[nodiscard]] std::uint64_t windows_closed() const noexcept { return windows_closed_; }
  /// Idle-time retransmissions issued in stutter mode (SR+ST).
  [[nodiscard]] std::uint64_t stutter_retx() const noexcept { return stutter_retx_; }

 private:
  struct Pending {
    sim::Packet packet;
    Time first_tx{};
    std::uint32_t attempts = 0;
  };

  void try_send();
  void send_iframe(std::uint64_t ctr, bool poll);
  [[nodiscard]] std::uint64_t ack_counter(frame::Seq nr) const;
  void handle_rr(const frame::HdlcSFrame& s);
  void handle_srej(const frame::HdlcSFrame& s);
  void release_below(std::uint64_t ctr);
  void arm_timeout();
  void on_timeout();
  void note_buffer_change();

  Simulator& sim_;
  link::SimplexChannel& out_;
  HdlcConfig cfg_;
  sim::DlcStats* stats_;
  frame::SeqSpace seqspace_;

  std::deque<sim::Packet> queue_;        ///< Admitted, not yet in the window.
  std::map<std::uint64_t, Pending> window_;  ///< Sent, unacknowledged.
  std::deque<std::uint64_t> retx_queue_;     ///< Rejected, awaiting resend.
  std::uint64_t base_ctr_{0};
  std::uint64_t next_ctr_{0};
  bool awaiting_response_{false};
  bool kick_pending_{false};
  EventId timeout_timer_{0};

  std::uint64_t timeouts_{0};
  std::uint64_t windows_closed_{0};
  std::uint64_t stutter_retx_{0};
  std::uint64_t stutter_cursor_{0};  ///< Next counter to stutter-resend.
};

/// SR-HDLC receiving endpoint.  Sink of the forward channel.
class SrReceiver final : public link::FrameSink {
 public:
  SrReceiver(Simulator& sim, link::SimplexChannel& control_out, HdlcConfig cfg,
             sim::PacketListener* listener, sim::DlcStats* stats = nullptr);

  SrReceiver(const SrReceiver&) = delete;
  SrReceiver& operator=(const SrReceiver&) = delete;

  void on_frame(frame::Frame f) override;

  /// Swap the upward delivery target.
  void set_listener(sim::PacketListener* l) noexcept { listener_ = l; }

  /// Frames currently held for resequencing (the in-sequence cost).
  [[nodiscard]] std::size_t recv_buffer_depth() const noexcept { return held_.size(); }

  /// Out-of-order frames discarded because the resequencing buffer was at
  /// capacity (RNR operation).
  [[nodiscard]] std::uint64_t busy_discards() const noexcept { return busy_discards_; }

 private:
  void handle_iframe(const frame::HdlcIFrame& in, bool corrupted);
  void deliver_ready();
  void respond();

  Simulator& sim_;
  link::SimplexChannel& out_;
  HdlcConfig cfg_;
  sim::PacketListener* listener_;
  sim::DlcStats* stats_;
  frame::SeqSpace seqspace_;

  std::uint64_t vr_{0};  ///< Next in-sequence counter expected.
  std::uint64_t highest_plus1_{0};
  std::map<std::uint64_t, sim::Packet> held_;  ///< Out-of-order good frames.
  std::uint64_t busy_discards_{0};
};

}  // namespace lamsdlc::hdlc

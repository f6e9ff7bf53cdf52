#pragma once
/// \file gbn.hpp
/// \brief Go-Back-N HDLC baseline (REJ recovery).
///
/// The classic continuous-window protocol the introduction contrasts with
/// SR: the receiver accepts only in-sequence frames and discards everything
/// after a gap, answering the first out-of-sequence frame with REJ(N(R));
/// the sender then backs up and resends from N(R).  Each delivered in-order
/// frame is acknowledged with RR(N(R)).  On a LAMS link the discarded
/// in-transit frames make GBN strictly worse than SR (Section 2.3) — this
/// implementation exists to demonstrate exactly that.

#include <cstdint>
#include <deque>
#include <map>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/frame/seqspace.hpp"
#include "lamsdlc/hdlc/config.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/packet.hpp"

namespace lamsdlc::hdlc {

/// GBN-HDLC sending endpoint.  Sink of the reverse channel.
class GbnSender final : public sim::DlcSender, public link::FrameSink {
 public:
  GbnSender(Simulator& sim, link::SimplexChannel& data_out, HdlcConfig cfg,
            sim::DlcStats* stats = nullptr);
  ~GbnSender() override;

  GbnSender(const GbnSender&) = delete;
  GbnSender& operator=(const GbnSender&) = delete;

  void submit(sim::Packet p) override;
  [[nodiscard]] std::size_t sending_buffer_depth() const override;
  [[nodiscard]] bool accepting() const override { return true; }
  [[nodiscard]] bool idle() const override;

  void on_frame(frame::Frame f) override;

  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }

 private:
  struct Pending {
    sim::Packet packet;
    Time first_tx{};
    std::uint32_t attempts = 0;
  };

  void try_send();
  void release_below(std::uint64_t ctr);
  void go_back_to(std::uint64_t ctr);
  void arm_timeout();
  void on_timeout();

  Simulator& sim_;
  link::SimplexChannel& out_;
  HdlcConfig cfg_;
  sim::DlcStats* stats_;
  frame::SeqSpace seqspace_;

  std::deque<sim::Packet> queue_;
  std::map<std::uint64_t, Pending> window_;
  std::uint64_t base_ctr_{0};
  std::uint64_t next_ctr_{0};
  std::uint64_t resend_cursor_{0};  ///< Next counter to (re)transmit.
  EventId timeout_timer_{0};
  std::uint64_t timeouts_{0};
};

/// GBN-HDLC receiving endpoint.  Sink of the forward channel.
class GbnReceiver final : public link::FrameSink {
 public:
  GbnReceiver(Simulator& sim, link::SimplexChannel& control_out,
              HdlcConfig cfg, sim::PacketListener* listener,
              sim::DlcStats* stats = nullptr);

  GbnReceiver(const GbnReceiver&) = delete;
  GbnReceiver& operator=(const GbnReceiver&) = delete;

  void on_frame(frame::Frame f) override;

  /// Swap the upward delivery target.
  void set_listener(sim::PacketListener* l) noexcept { listener_ = l; }

  /// Frames the in-sequence constraint forced this receiver to discard.
  [[nodiscard]] std::uint64_t frames_discarded() const noexcept { return discarded_; }

 private:
  Simulator& sim_;
  link::SimplexChannel& out_;
  HdlcConfig cfg_;
  sim::PacketListener* listener_;
  sim::DlcStats* stats_;
  frame::SeqSpace seqspace_;

  std::uint64_t vr_{0};
  bool rej_outstanding_{false};
  std::uint64_t discarded_{0};
};

}  // namespace lamsdlc::hdlc

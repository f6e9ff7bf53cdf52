#pragma once
/// \file nbdt.hpp
/// \brief NBDT-style continuous-mode ARQ baseline.
///
/// The introduction reviews NBDT (the NADIR Bulk Data Transfer protocol):
/// an HDLC variant for point-to-point satellite links built on *absolute*
/// 32-bit numbering (decoupling frame size from the sequence space) and
/// *completely selective acknowledgement*, with a continuous mode in which
/// new transmissions and retransmissions mix freely.  The paper's
/// criticisms: its memory demand is huge (met with secondary storage) and
/// it does not consider protocol reliability.
///
/// This implementation realizes the continuous mode as the paper describes
/// it, for comparison against LAMS-DLC:
///  - the sender transmits continuously with absolute numbers that never
///    change across retransmissions;
///  - the receiver delivers *in sequence* (buffering out-of-order frames —
///    one of the memory sinks) and emits a periodic status report: a
///    cumulative base plus the explicit missing list up to the highest
///    number received;
///  - the sender releases everything the status covers (selectively, not
///    just below base), retransmits reported holes (rate-limited so one
///    hole is not resent once per status period inside a single RTT), and
///    falls back to a timeout for silent tails.
///
/// The contrast with LAMS-DLC measured in bench E16: similar steady-state
/// throughput, but the receiver's resequencing buffer scales with loss x
/// bandwidth-delay, the status reports are positive acknowledgements (so
/// their loss costs holding time), and the absolute numbering is exactly
/// what LAMS-DLC's bounded numbering size removes.

#include <cstdint>
#include <deque>
#include <map>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/sim/dlc.hpp"
#include "lamsdlc/sim/packet.hpp"

namespace lamsdlc::nbdt {

/// Parameters for an NBDT flow.
struct NbdtConfig {
  /// Period of the receiver's selective status reports.
  Time status_interval = Time::milliseconds(5);
  /// Holes are not retransmitted more often than this (a hole reported by
  /// several consecutive status frames is in flight, not lost again).
  Time retx_guard = Time::milliseconds(15);
  /// Silent-tail fallback: a frame with no status coverage for this long is
  /// retransmitted.
  Time timeout = Time::milliseconds(50);
  /// Per-frame processing time.
  Time t_proc = Time::microseconds(10);

  /// Multiphase mode (the paper's other NBDT mode): "the sender performs
  /// transmissions and retransmissions alternately" — while any
  /// retransmitted frame is still unconfirmed, no new frames enter the
  /// wire.  Continuous mode (default, false) mixes them freely.
  bool multiphase = false;
};

/// NBDT sender: continuous transmission, absolute numbering.
class NbdtSender final : public sim::DlcSender, public link::FrameSink {
 public:
  NbdtSender(Simulator& sim, link::SimplexChannel& data_out, NbdtConfig cfg,
             sim::DlcStats* stats = nullptr);
  ~NbdtSender() override;

  NbdtSender(const NbdtSender&) = delete;
  NbdtSender& operator=(const NbdtSender&) = delete;

  void submit(sim::Packet p) override;
  [[nodiscard]] std::size_t sending_buffer_depth() const override;
  [[nodiscard]] bool accepting() const override { return true; }
  [[nodiscard]] bool idle() const override;

  void on_frame(frame::Frame f) override;

 private:
  struct Pending {
    sim::Packet packet;
    Time first_tx{};
    Time last_tx{};
    std::uint32_t attempts = 0;
  };

  void try_send();
  void handle_status(const frame::SelectiveAckFrame& st);
  void release(std::uint64_t number);
  void queue_retx(std::uint64_t number);
  void on_tail_timer();

  Simulator& sim_;
  link::SimplexChannel& out_;
  NbdtConfig cfg_;
  sim::DlcStats* stats_;

  std::deque<sim::Packet> queue_;             ///< Not yet transmitted.
  std::map<std::uint64_t, Pending> window_;   ///< Unacknowledged, by number.
  std::deque<std::uint64_t> retx_queue_;
  std::uint64_t next_number_{0};
  std::uint64_t unconfirmed_retx_{0};  ///< Multiphase: open retransmissions.
  EventId tail_timer_{0};
};

/// NBDT receiver: in-sequence delivery, periodic selective status.
class NbdtReceiver final : public link::FrameSink {
 public:
  NbdtReceiver(Simulator& sim, link::SimplexChannel& control_out,
               NbdtConfig cfg, sim::PacketListener* listener,
               sim::DlcStats* stats = nullptr);
  ~NbdtReceiver() override;

  NbdtReceiver(const NbdtReceiver&) = delete;
  NbdtReceiver& operator=(const NbdtReceiver&) = delete;

  /// Begin the periodic status cadence.
  void start();
  void stop();

  void on_frame(frame::Frame f) override;

  void set_listener(sim::PacketListener* l) noexcept { listener_ = l; }

  /// Frames parked for in-sequence delivery (the memory sink).
  [[nodiscard]] std::size_t recv_buffer_depth() const noexcept { return held_.size(); }
  [[nodiscard]] std::uint64_t statuses_sent() const noexcept { return statuses_; }

 private:
  void status_tick();
  void deliver_ready();

  Simulator& sim_;
  link::SimplexChannel& out_;
  NbdtConfig cfg_;
  sim::PacketListener* listener_;
  sim::DlcStats* stats_;

  bool running_{false};
  EventId status_timer_{0};
  std::uint64_t base_{0};      ///< Everything below arrived and left.
  std::uint64_t highest_plus1_{0};
  std::map<std::uint64_t, sim::Packet> held_;
  std::uint64_t statuses_{0};
};

}  // namespace lamsdlc::nbdt

#pragma once
/// \file net_channel.hpp
/// \brief `link::FrameChannel` backend over a datagram transport.
///
/// The LAMS endpoints pace themselves against the channel's serializer:
/// they queue one frame, wait for the idle callback, queue the next.  Over
/// a real socket there is no serializer — `sendto` returns immediately — so
/// `NetChannel` *models* one: each frame departs at once (wrapped in an
/// envelope, see frame/envelope.hpp) but the channel stays `busy()` for the
/// frame's `tx_time` at the configured data rate.  That keeps the sender's
/// offered load at the link rate the protocol was tuned for instead of
/// blasting datagrams as fast as the CPU can encode them.
///
/// Timing contract (see `link::FrameChannel`): `propagation_at` returns the
/// *configured upper bound* on one-way delay, not a measurement, plus the
/// loop's lateness at the send (`wall_now() - now()`).  After a stall the
/// loop replays overdue timers at their scheduled instants, but a frame such
/// a timer sends leaves at the wall instant; without the lateness term the
/// sender would date it up to a whole stall too early.  Together with the
/// mux's checkpoint age normalization this keeps the sender's
/// provable-non-delivery release rule valid without any clock agreement
/// between the two machines (docs/RUNTIME.md).

#include <cstdint>
#include <deque>
#include <functional>

#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/envelope.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/transport.hpp"

namespace lamsdlc::rt {

class NetChannel final : public link::FrameChannel {
 public:
  struct Config {
    double data_rate_bps = 300e6;  ///< Pacing rate (serializer model).
    /// Upper bound on one-way network delay; also the age the mux assigns
    /// to arriving checkpoints.  Must exceed the real path's worst case or
    /// the release rule's proof obligation breaks (pick generously; only
    /// release latency suffers).
    Time max_one_way = Time::milliseconds(5);
    std::uint32_t session_id = 0;
    PeerId peer = 0;
    /// Direction bit stamped on every envelope this channel emits.
    bool to_receiver = true;
  };

  NetChannel(EventLoop& loop, Transport& transport, Config cfg)
      : loop_{loop}, transport_{transport}, cfg_{cfg} {}
  ~NetChannel() override;

  /// \name link::FrameChannel
  /// @{
  void send(frame::Frame f) override;
  void set_idle_callback(std::function<void()> cb) override {
    idle_cb_ = std::move(cb);
  }
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] bool up() const override { return true; }
  [[nodiscard]] Time tx_time(const frame::Frame& f) const override;
  [[nodiscard]] Time propagation_at(Time) const override;
  /// @}

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t send_failures() const noexcept {
    return send_failures_;
  }

 private:
  void transmit(frame::Frame f);
  void serializer_done();

  EventLoop& loop_;
  Transport& transport_;
  Config cfg_;
  std::function<void()> idle_cb_;
  std::deque<frame::Frame> queue_;
  std::vector<std::uint8_t> frame_buf_;  ///< Reused codec scratch.
  std::vector<std::uint8_t> env_buf_;    ///< Reused envelope scratch.
  bool busy_ = false;
  EventId serializer_timer_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace lamsdlc::rt

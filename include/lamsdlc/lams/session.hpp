#pragma once
/// \file session.hpp
/// \brief Link-session lifecycle: initialization, close, resynchronization.
///
/// Section 2 lists "error free procedures for link initialization, link
/// failure detection, and resynchronization" among the reliability
/// constraints, and Section 2.3 observes that the two ends' contexts must
/// be brought to a well-defined state "at link initialization, resetting,
/// check-pointing, closing".  The core protocol covers failure detection
/// and checkpointing; this layer adds the remaining lifecycle:
///
///  - `SessionSender::open()` runs an INIT / INIT-ACK handshake (epoch
///    numbers disambiguate; retries cover losses) and only then releases
///    buffered traffic into the inner `LamsSender`;
///  - `close()` drains the sending buffer, then exchanges CLOSE /
///    CLOSE-ACK so both ends end the link lifetime in a consistent state;
///  - on a declared link failure the session can *resynchronize*: a new
///    epoch re-initializes both ends (the receiver forgets its sequence
///    tracking, the sender renumbers from zero with its unresolved traffic
///    requeued), giving zero loss across the failure; frames that had
///    already arrived may be re-delivered, so exactly-once semantics rest
///    on the destination's de-duplication (the documented substitution for
///    the TR's unpublished zero-duplication successor protocol).
///
/// Epoch hygiene: checkpoints carry the epoch that produced them and the
/// inner sender discards mismatches, so acknowledgements in flight across
/// a re-initialization can never be misread against restarted numbering.

#include <cstdint>
#include <deque>
#include <functional>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/lams/receiver.hpp"
#include "lamsdlc/lams/sender.hpp"

namespace lamsdlc::lams {

/// Session parameters.
struct SessionConfig {
  LamsConfig lams;                      ///< Inner protocol parameters.
  Time init_retry = Time::milliseconds(30);  ///< INIT / CLOSE retry period.
  std::uint32_t max_handshake_retries = 10;  ///< Then the session fails.
  bool auto_resync = false;  ///< Re-open automatically on link failure.
  std::uint32_t max_resyncs = 3;
};

/// Sender-side session manager.  Owns the inner `LamsSender`; attach as the
/// sink of the *reverse* channel (it filters session responses and passes
/// checkpoints through).
class SessionSender final : public sim::DlcSender, public link::FrameSink {
 public:
  enum class State { kIdle, kInitializing, kEstablished, kDraining, kClosing,
                     kClosed, kFailed };

  /// \p bus (optional) is forwarded to the inner `LamsSender` so live runs
  /// can capture the typed event stream per session.
  SessionSender(Simulator& sim, link::FrameChannel& data_out,
                SessionConfig cfg, sim::DlcStats* stats = nullptr,
                obs::EventBus* bus = nullptr);
  ~SessionSender() override;

  SessionSender(const SessionSender&) = delete;
  SessionSender& operator=(const SessionSender&) = delete;

  /// Begin the INIT handshake (idempotent while initializing).
  void open();

  /// Drain outstanding traffic, then exchange CLOSE / CLOSE-ACK.
  void close();

  /// \name sim::DlcSender — buffers until the session is established.
  /// @{
  void submit(sim::Packet p) override;
  [[nodiscard]] std::size_t sending_buffer_depth() const override;
  [[nodiscard]] bool accepting() const override;
  [[nodiscard]] bool idle() const override;
  /// @}

  /// link::FrameSink (reverse channel).
  void on_frame(frame::Frame f) override;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t resyncs() const noexcept { return resyncs_; }
  [[nodiscard]] LamsSender& inner() noexcept { return inner_; }

  /// Fires on state transitions worth reacting to (established, closed,
  /// failed).
  using StateCallback = std::function<void(State)>;
  void set_state_callback(StateCallback cb) { on_state_ = std::move(cb); }

  /// Fires on every `accepting()` false→true edge — the buffer drained (a
  /// checkpoint released frames) or the session reached a state that admits
  /// traffic again.  Event-driven backpressure resume for producers that
  /// paused on `accepting() == false`; no polling required.  May be invoked
  /// from inside inner-protocol processing: re-entrant `submit()` from the
  /// callback is safe, but prefer deferring real work.
  using CanAcceptCallback = std::function<void()>;
  void set_can_accept_callback(CanAcceptCallback cb) {
    on_can_accept_ = std::move(cb);
  }

 private:
  void enter(State s);
  /// Re-evaluate `accepting()` and fire `on_can_accept_` on a rising edge.
  void note_accepting();
  void send_handshake(frame::SessionFrame::Kind kind);
  void on_handshake_timer();
  void on_inner_failed();
  void try_resync();
  void check_drained();

  Simulator& sim_;
  link::FrameChannel& out_;
  SessionConfig cfg_;
  LamsSender inner_;

  State state_{State::kIdle};
  bool close_requested_{false};  ///< close() arrived before establishment.
  std::uint32_t epoch_{0};
  std::uint32_t retries_{0};
  std::uint32_t resyncs_{0};
  EventId handshake_timer_{0};
  EventId drain_timer_{0};
  std::deque<sim::Packet> pending_;  ///< Buffered until established.
  StateCallback on_state_;
  CanAcceptCallback on_can_accept_;
  bool was_accepting_{true};  ///< Last observed accepting(); edge detector.
};

/// Receiver-side session manager.  Owns the inner `LamsReceiver`; attach as
/// the sink of the *forward* channel.
class SessionReceiver final : public link::FrameSink {
 public:
  /// \p bus (optional) is forwarded to the inner `LamsReceiver` so live
  /// runs can capture the typed event stream per session.
  SessionReceiver(Simulator& sim, link::FrameChannel& control_out,
                  SessionConfig cfg, sim::PacketListener* listener,
                  sim::DlcStats* stats = nullptr,
                  obs::EventBus* bus = nullptr);

  SessionReceiver(const SessionReceiver&) = delete;
  SessionReceiver& operator=(const SessionReceiver&) = delete;

  void on_frame(frame::Frame f) override;

  [[nodiscard]] bool in_session() const noexcept { return in_session_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t inits_accepted() const noexcept { return inits_; }
  [[nodiscard]] LamsReceiver& inner() noexcept { return inner_; }

  /// Fires when an INIT establishes a session epoch (`in_session == true`)
  /// and when a CLOSE ends one (`false`) — the hook the live mux uses to
  /// create and retire passive-side per-session state, and how a daemon
  /// knows a stream finished cleanly.
  using LifecycleCallback = std::function<void(bool in_session,
                                               std::uint32_t epoch)>;
  void set_lifecycle_callback(LifecycleCallback cb) {
    on_lifecycle_ = std::move(cb);
  }

 private:
  void reply(frame::SessionFrame::Kind kind, std::uint32_t epoch);

  link::FrameChannel& out_;
  LamsReceiver inner_;

  bool in_session_{false};
  std::uint32_t epoch_{0};
  std::uint32_t inits_{0};
  LifecycleCallback on_lifecycle_;
};

/// Lowercase state name for logs and status output ("established", ...).
[[nodiscard]] const char* to_string(SessionSender::State s) noexcept;

}  // namespace lamsdlc::lams

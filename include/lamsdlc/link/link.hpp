#pragma once
/// \file link.hpp
/// \brief Simulated point-to-point full-duplex intersatellite link.
///
/// Each direction is a `SimplexChannel`: a serializer running at the data
/// rate, a propagation delay (fixed, or time-varying via a range function for
/// orbit-driven scenarios), and an error process deciding per-frame
/// corruption.  Corrupted frames are still delivered with `corrupted = true`
/// — the paper's link model treats loss as a detectable error (assumption 9),
/// and endpoints decide what survives of a damaged frame.  Between
/// serialization and arrival a frame waits in a `ChannelIngress`, the one
/// transit discipline of serial and parallel runs alike.
///
/// An optional FEC codec expands payload bits into coded bits for the
/// serializer, so control frames can ride a stronger (lower-rate) code than
/// I-frames, exactly as link model assumption 4 prescribes.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/core/stats.hpp"
#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/frame.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/phy/error_model.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/phy/fec.hpp"

namespace lamsdlc::link {

/// Receiving side of a channel.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// Deliver a frame (possibly with `corrupted` set).
  virtual void on_frame(frame::Frame f) = 0;
};

/// Sending side of a channel, abstracted over the backend: the surface the
/// LAMS endpoints actually use.  Two implementations exist — the simulated
/// `SimplexChannel` below and the live `rt::NetChannel` (rt/net_channel.hpp), which
/// serializes frames through the byte codec onto a real transport.  The
/// protocol state machines are written against this interface, so the
/// simulator is one backend of two rather than a hard dependency.
///
/// Timing contract: `tx_time` is the serialization time the sender budgets
/// for pacing, and `propagation_at(t)` is an *upper bound* on the one-way
/// delay of a frame sent at `t`.  The sim backend's bound is exact; a live
/// backend returns its configured worst case plus its loop's lateness, which
/// keeps the release rule conservative (see docs/RUNTIME.md, "checkpoint age
/// normalization").
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  /// Queue a frame for transmission (FIFO at the channel's data rate).
  virtual void send(frame::Frame f) = 0;

  /// Invoked whenever the serializer finishes the last queued frame; lets a
  /// saturating sender keep the pipe full without polling.
  virtual void set_idle_callback(std::function<void()> cb) = 0;

  /// True while the serializer has work queued or in progress.
  [[nodiscard]] virtual bool busy() const = 0;

  /// Channel availability; while down, frames are destroyed.
  [[nodiscard]] virtual bool up() const = 0;

  /// Serialization time of \p f on this channel (after FEC expansion).
  [[nodiscard]] virtual Time tx_time(const frame::Frame& f) const = 0;

  /// Upper bound on the one-way delay of a frame sent at \p when.
  [[nodiscard]] virtual Time propagation_at(Time when) const = 0;
};

/// Transit queue between a channel's serializer and its receiving endpoint.
/// Every simulated frame that survives its send-time fate draw waits here
/// until its arrival instant.  A `SimplexChannel` owns one for its own
/// deliveries; under PDES (`net::Network::enable_pdes`) the channel instead
/// hands its frames to an ingress living with the receiver, in the
/// *receiving* partition's kernel (directly for partition-local traffic, at
/// window barriers for cross-partition traffic).
///
/// Frames wait in (arrival, push-order) order and a single armed sweep event
/// delivers them at their arrival instants, so a saturated 1 Gbps / 10 ms
/// link with ~10^3 frames in flight keeps the kernel's event heap one entry
/// deep per channel.  On a fault-free channel arrivals are monotone and every
/// push is an O(1) push_back; a jitter stage or shrinking orbital
/// propagation triggers the rare sorted insert and a cancel + re-arm of the
/// sweep.  A channel's own ingress sweeps at the kernel default priority;
/// `net::Network` gives each PDES ingress a fixed below-default priority
/// unique to it, so same-instant sweep-vs-endpoint-timer ordering
/// depends only on which objects are involved, never on scheduling history —
/// which is what makes execution invariant across partition counts.
///
/// Down-epochs: each frame carries its channel's down-epoch from the instant
/// its serialization started, and `bump_epoch` is called by the same
/// link-down operation that bumps the channel's, so a frame stamped before
/// the outage is dropped here at its arrival instant.
class ChannelIngress {
 public:
  ChannelIngress(Simulator& sim, Simulator::Priority sweep_priority)
      : sim_{sim}, sweep_priority_{sweep_priority} {}

  ChannelIngress(const ChannelIngress&) = delete;
  ChannelIngress& operator=(const ChannelIngress&) = delete;

  void set_sink(FrameSink* sink) noexcept { sink_ = sink; }
  void set_event_bus(obs::EventBus* bus, obs::Source source) noexcept {
    bus_ = bus;
    src_ = source;
  }

  /// Accept an in-flight frame.  \throws std::logic_error if \p arrival is
  /// before the local kernel's clock — that means the window lookahead bound
  /// was violated, and a loud failure beats a silently divergent run.
  void push(Time arrival, std::uint64_t epoch, frame::Frame&& f);

  /// Link went down: in-flight frames stamped with the old epoch are dropped
  /// at their arrival instants (photons in flight when pointing was lost).
  void bump_epoch() noexcept { ++epoch_; }

  /// Emit one link-fate event about \p f on the attached bus, stamped with
  /// this kernel's clock: the delivery-time drops below, and the send-time
  /// fates of the channel that owns this ingress.
  void emit_fate(obs::EventKind kind, obs::DropCause cause,
                 const frame::Frame& f);

  /// Frames dropped at delivery time (stale down-epoch, or no sink).
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_;
  }

 private:
  struct Transit {
    Time arrival;
    std::uint64_t epoch;
    frame::Frame f;
  };
  void arm_sweep();
  void sweep();

  Simulator& sim_;
  Simulator::Priority sweep_priority_;
  FrameSink* sink_{nullptr};
  obs::EventBus* bus_{nullptr};
  obs::Source src_{obs::Source::kOther};
  std::deque<Transit> transit_;
  EventId sweep_event_{0};
  bool sweep_armed_{false};
  Time sweep_at_{};
  std::uint64_t epoch_{0};
  std::uint64_t frames_dropped_{0};
};

/// One direction of the link.
class SimplexChannel final : public FrameChannel {
 public:
  struct Config {
    double data_rate_bps = 300e6;  ///< Laser link rate (paper: 0.3–1 Gbps).
    /// One-way propagation delay as a function of the send instant.  Fixed
    /// by default; hook an orbit::SatellitePair for moving satellites.
    std::function<Time(Time)> propagation =
        [](Time) { return Time::milliseconds(10); };
    /// Distinct FEC per frame class (assumption 4).  A frame's wire length
    /// is `codec.coded_bits(frame bits)` when a codec is configured.
    std::optional<phy::FecParams> iframe_fec;
    std::optional<phy::FecParams> control_fec;

    /// Byte-accurate wire mode: every frame is serialized through the real
    /// codec on send; corruption flips actual bits in the encoded buffer;
    /// delivery decodes the damaged bytes and lets the CRC-16 FCS do the
    /// detection.  Slower, but exercises the full byte path end to end.
    /// In the default (fast) mode the `corrupted` mark models the same
    /// outcome without serializing.
    bool byte_level = false;

    /// Seed for the bit-flip positions in byte-accurate mode.
    std::uint64_t byte_level_seed = 0x5EED;

    /// Byte-accurate mode only: value limits the receiving end applies when
    /// decoding (frame::DecodeLimits).  The scenario harness fills in the
    /// protocol's sequence modulus, so a frame whose FCS survives damage but
    /// whose seq field is out of range is refused like any other unreadable
    /// husk instead of aliasing mod m inside the endpoint.
    frame::DecodeLimits decode_limits;
  };

  SimplexChannel(Simulator& sim, Config cfg,
                 std::unique_ptr<phy::ErrorModel> error_model);

  /// Replace the data-frame error process (e.g. to script a burst outage
  /// after construction).
  void set_data_error_model(std::unique_ptr<phy::ErrorModel> m) {
    error_ = std::move(m);
  }

  /// Use a distinct error process for control frames (the analysis treats
  /// P_F and P_C as independent invariants; the stronger control-frame FEC
  /// of assumption 4 justifies a separate, lower probability).  Without
  /// this, the single model applies to all frames.
  void set_control_error_model(std::unique_ptr<phy::ErrorModel> m) {
    control_error_ = std::move(m);
  }

  /// Append a fault stage (see phy::FaultInjector).  Stages compose: each
  /// frame's fate is the combination of every stage's verdict, so e.g. a
  /// control-only drop stage and an all-frames jitter stage attack the same
  /// channel independently.
  void add_fault_stage(std::unique_ptr<phy::FaultInjector> stage) {
    faults_.push_back(std::move(stage));
  }

  /// Remove every installed fault stage (the channel reverts to the plain
  /// error-model behaviour).
  void clear_fault_stages() { faults_.clear(); }

  /// Attach a typed-event bus; \p source labels this direction's events
  /// (kLinkForward / kLinkReverse).  Events mirror the channel counters
  /// one-for-one: every counter increment emits exactly one event, so the
  /// metrics collector reproduces the counters from the stream.
  void set_event_bus(obs::EventBus* bus, obs::Source source) noexcept {
    ingress_.set_event_bus(bus, source);
  }

  SimplexChannel(const SimplexChannel&) = delete;
  SimplexChannel& operator=(const SimplexChannel&) = delete;

  /// Attach the receiving endpoint.  Frames sent while no sink is attached
  /// are counted and dropped.
  void set_sink(FrameSink* sink) noexcept { ingress_.set_sink(sink); }

  /// Receiver-side handoff for the parallel network driver: every frame that
  /// survives the send-time fate draw (error model, fault stages, byte-level
  /// codec) is handed to \p egress with its computed arrival instant and the
  /// channel's down-epoch at send, *instead of* entering this channel's own
  /// ingress.  All nondeterminism is resolved at send time — the handoff
  /// carries a finished (frame, arrival, epoch) triple, so delivery can run
  /// in a different partition's kernel (a `ChannelIngress` living with the
  /// receiver) without consulting sender-side state.
  using Egress = std::function<void(Time arrival, std::uint64_t epoch,
                                    frame::Frame f)>;
  void set_egress(Egress egress) { egress_ = std::move(egress); }

  /// Queue a frame for transmission.  Frames serialize back-to-back in FIFO
  /// order at the data rate.
  void send(frame::Frame f) override;

  /// Invoked whenever the serializer finishes the last queued frame; lets a
  /// saturating sender keep the pipe full without polling.
  void set_idle_callback(std::function<void()> cb) override {
    idle_cb_ = std::move(cb);
  }

  /// Instant the serializer becomes free (== now when idle).
  [[nodiscard]] Time busy_until() const noexcept;

  /// True while the serializer has work queued or in progress.
  [[nodiscard]] bool busy() const noexcept override;

  /// Link state; while down, queued and new frames are destroyed (photons
  /// have nowhere to go when pointing is lost).
  void set_up(bool up);
  [[nodiscard]] bool up() const noexcept override { return up_; }

  /// Serialization time of \p f on this channel (after FEC expansion).
  [[nodiscard]] Time tx_time(const frame::Frame& f) const noexcept override;

  /// One-way delay of a frame sent at \p when (exact in the sim model).
  [[nodiscard]] Time propagation_at(Time when) const override {
    return cfg_.propagation(when);
  }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// \name Counters
  /// @{
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }
  /// Outage and no-sink drops, at send time and on arrival.
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_ + ingress_.frames_dropped();
  }
  [[nodiscard]] std::uint64_t bits_sent() const noexcept { return bits_sent_; }
  /// Byte-accurate mode only: clean frames that failed to decode, or whose
  /// decoded wire fields disagreed with what was sent despite a passing FCS.
  /// Always 0 — a nonzero value is a codec bug (surfaced for the test suite
  /// and the invariant checker to assert on).
  [[nodiscard]] std::uint64_t codec_mismatches() const noexcept { return codec_mismatches_; }
  /// Byte-accurate mode only: *damaged* frames whose bit flips happened to
  /// produce a passing FCS (CRC-16 aliasing, ~2^-16 per damaged frame).
  /// This is a modeled property of the channel, not a codec bug — the
  /// channel fails safe by still marking the frame corrupted — so it is
  /// counted separately from `codec_mismatches()`.
  [[nodiscard]] std::uint64_t codec_aliases() const noexcept { return codec_aliases_; }
  /// Byte-accurate mode only: per-reason tally of every wire buffer the
  /// frame decoder refused (bad FCS for damaged frames, length overruns and
  /// the rest for hostile input injected by the verification tiers).
  [[nodiscard]] const frame::DecodeRejectCounts& decode_rejects() const noexcept {
    return decode_rejects_;
  }
  /// Frames silently omitted by a fault stage (never delivered).
  [[nodiscard]] std::uint64_t frames_fault_dropped() const noexcept {
    return frames_fault_dropped_;
  }
  /// Extra frame copies injected by fault stages.
  [[nodiscard]] std::uint64_t frames_duplicated() const noexcept {
    return frames_duplicated_;
  }
  /// Frames whose delivery a fault stage delayed (reordering candidates).
  [[nodiscard]] std::uint64_t frames_delayed() const noexcept {
    return frames_delayed_;
  }
  /// Frames truncated into unreadable husks by a fault stage.
  [[nodiscard]] std::uint64_t frames_truncated() const noexcept {
    return frames_truncated_;
  }
  /// @}

 private:
  void start_next();
  /// Pass a frame whose fate is decided on to its arrival: the egress when
  /// one is set, otherwise this channel's own ingress.
  void hand_off(Time arrival, std::uint64_t epoch, frame::Frame&& f);
  [[nodiscard]] std::size_t coded_bits(const frame::Frame& f) const noexcept;
  /// Byte-accurate mode: encode, apply \p corrupt as real bit flips, decode.
  /// Moves through: the input frame is consumed, never copied, and the
  /// encode buffer is the reused channel-owned `wire_buf_`.
  [[nodiscard]] frame::Frame through_codec(frame::Frame f, bool corrupt);

  Simulator& sim_;
  /// Frames in flight, and this channel's event bus (send-time fates are
  /// emitted through it too).
  ChannelIngress ingress_;
  Config cfg_;
  std::unique_ptr<phy::ErrorModel> error_;
  std::unique_ptr<phy::ErrorModel> control_error_;
  std::vector<std::unique_ptr<phy::FaultInjector>> faults_;
  std::optional<phy::FecCodec> iframe_codec_;
  std::optional<phy::FecCodec> control_codec_;
  Egress egress_;
  std::function<void()> idle_cb_;
  std::deque<frame::Frame> queue_;
  std::vector<std::uint8_t> wire_buf_;  ///< Reused encode buffer.
  bool transmitting_{false};
  Time tx_done_{};
  bool up_{true};
  std::uint64_t down_epoch_{0};  ///< Invalidates in-flight frames on failure.
  std::uint64_t frames_sent_{0};
  std::uint64_t frames_corrupted_{0};
  std::uint64_t frames_dropped_{0};
  std::uint64_t bits_sent_{0};
  std::uint64_t codec_mismatches_{0};
  std::uint64_t codec_aliases_{0};
  frame::DecodeRejectCounts decode_rejects_;
  std::uint64_t frames_fault_dropped_{0};
  std::uint64_t frames_duplicated_{0};
  std::uint64_t frames_delayed_{0};
  std::uint64_t frames_truncated_{0};
  RandomStream flip_rng_;
};

/// Full-duplex link: two independent simplex channels (assumption 2).
class FullDuplexLink {
 public:
  FullDuplexLink(Simulator& sim, SimplexChannel::Config forward_cfg,
                 std::unique_ptr<phy::ErrorModel> forward_error,
                 SimplexChannel::Config reverse_cfg,
                 std::unique_ptr<phy::ErrorModel> reverse_error)
      : FullDuplexLink{sim,
                       sim,
                       std::move(forward_cfg),
                       std::move(forward_error),
                       std::move(reverse_cfg),
                       std::move(reverse_error)} {}

  /// Two-kernel form for the parallel network driver: each direction's
  /// transmit side is owned by the kernel of the node doing the sending
  /// (forward = a→b serializes in a's partition, reverse in b's).
  FullDuplexLink(Simulator& forward_sim, Simulator& reverse_sim,
                 SimplexChannel::Config forward_cfg,
                 std::unique_ptr<phy::ErrorModel> forward_error,
                 SimplexChannel::Config reverse_cfg,
                 std::unique_ptr<phy::ErrorModel> reverse_error)
      : forward_{forward_sim, std::move(forward_cfg), std::move(forward_error)},
        reverse_{reverse_sim, std::move(reverse_cfg), std::move(reverse_error)} {}

  [[nodiscard]] SimplexChannel& forward() noexcept { return forward_; }
  [[nodiscard]] SimplexChannel& reverse() noexcept { return reverse_; }

  /// Take both directions up or down together (a pointing loss kills both).
  void set_up(bool up) {
    forward_.set_up(up);
    reverse_.set_up(up);
  }

 private:
  SimplexChannel forward_;
  SimplexChannel reverse_;
};

}  // namespace lamsdlc::link

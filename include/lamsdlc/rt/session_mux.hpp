#pragma once
/// \file session_mux.hpp
/// \brief Many concurrent LAMS-DLC sessions over one datagram transport.
///
/// A `SessionMux` is the live runtime's switchboard.  Each *stream* is one
/// full LAMS-DLC session — INIT/INIT-ACK establishment, checkpointed ARQ,
/// RESYNC self-stabilization, CLOSE/CLOSE-ACK teardown, all the PR-6
/// machinery unchanged — multiplexed over a shared socket by the envelope's
/// (session_id, direction) key:
///
///  - **outbound** streams: this end constructs a `SessionSender` plus a
///    data-direction `NetChannel`; application bytes are segmented into
///    `chunk_bytes` packets whose `PacketId` is `(session_id << 32) | index`
///    — globally unique (the protocol's requirement) *and* self-describing
///    (the index is the reassembly position, so out-of-order delivery at
///    the far end needs no extra sequencing header).
///
///  - **inbound** streams: the first datagram bearing an unknown
///    (peer, session_id) in the data direction materializes a
///    `SessionReceiver` (the INIT handshake then runs normally; datagrams
///    that precede a lost INIT are handled by the session layer's retry).
///    Delivered packets are re-sequenced by chunk index and handed up as a
///    contiguous byte stream; duplicates (a RESYNC re-delivery) are
///    discarded here, exactly where the paper's Section 2.3 puts the
///    responsibility.
///
/// **Checkpoint age normalization.**  A checkpoint's `generated_at` is
/// stamped by the *peer's* clock, which shares nothing with ours.  The mux
/// rewrites it on arrival to `now - max_one_way` — the oldest instant the
/// checkpoint could have been generated at, given the configured delay
/// bound.  The release rule then reasons entirely in local time and stays
/// conservative: it can only *underestimate* how much the checkpoint
/// proves, never overestimate (docs/RUNTIME.md derives this).
///
/// **Peer restart.**  A restarted initiator re-INITs at epoch 1.  If the
/// old session had closed, the stale high-epoch receiver state is torn down
/// and rebuilt fresh; if it was mid-flight, the epoch rules (PR 6) protect
/// the numbering and the restarted peer's fresh session id takes over.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/envelope.hpp"
#include "lamsdlc/lams/session.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/net_channel.hpp"
#include "lamsdlc/rt/transport.hpp"
#include "lamsdlc/sim/dlc.hpp"

namespace lamsdlc::rt {

class SessionMux {
 public:
  struct Config {
    lams::SessionConfig session;
    double data_rate_bps = 300e6;
    /// Upper bound on one-way network delay (see NetChannel::Config).
    Time max_one_way = Time::milliseconds(5);
    /// Stream segmentation: bytes per packet (and per I-frame payload).
    std::uint32_t chunk_bytes = 1024;
    /// Outbound per-stream sending-buffer capacity, in packets.  Applied as
    /// the session's `send_buffer_capacity` when the caller left that at
    /// its unlimited default — a mux fed by a socket bridge must bound the
    /// buffer or a fast client writing into a slow link grows memory
    /// without limit.  0 keeps whatever the session config says.
    std::size_t stream_buffer_packets = 256;
    /// Limits for decoding inbound frames; seq_modulus defaults to the
    /// session's numbering modulus when left 0.
    frame::DecodeLimits decode_limits;
    /// Admit inbound streams (the serving side).  When false, datagrams
    /// for unknown sessions are counted in `unroutable()` and dropped.
    bool accept_inbound = true;
    /// Optional per-session event-bus factory (`sender_side` true for the
    /// outbound half).  Returned buses must outlive the mux; return null
    /// for "don't observe this one".
    std::function<obs::EventBus*(std::uint32_t session_id, bool sender_side)>
        bus_for;
  };

  /// Throws std::invalid_argument when \p cfg has a zero `chunk_bytes` or
  /// one whose data envelope exceeds `transport.max_datagram()` (65,478
  /// bytes at UDP's 65,507), a `data_rate_bps` that is not positive and
  /// finite, or a non-positive checkpoint interval.
  SessionMux(EventLoop& loop, Transport& transport, Config cfg);
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// \name Outbound streams
  /// @{

  /// Create a stream to \p peer and start the INIT handshake.  \p session_id
  /// must be unused among this mux's outbound streams.
  void open_stream(PeerId peer, std::uint32_t session_id);

  /// Segment \p bytes into packets and submit them.  Respect
  /// `stream_accepting` for backpressure: pause the producer while it is
  /// false and resume on the stream-resume handler (writes submitted anyway
  /// are still queued, but `stream_buffer_packets` bounds how deep the
  /// session lets the buffer grow before `stream_accepting` trips).
  bool stream_write(std::uint32_t session_id,
                    std::span<const std::uint8_t> bytes);

  /// Drain, then CLOSE/CLOSE-ACK.  State callbacks report the outcome.
  void stream_close(std::uint32_t session_id);

  /// Discard a finished (closed/failed) stream's state.
  void drop_stream(std::uint32_t session_id);

  [[nodiscard]] bool stream_accepting(std::uint32_t session_id) const;

  using StreamStateHandler =
      std::function<void(std::uint32_t session_id,
                         lams::SessionSender::State)>;
  void set_stream_state_handler(StreamStateHandler h) {
    on_stream_state_ = std::move(h);
  }

  /// Fires when a stream that stopped accepting starts accepting again
  /// (checkpoint released frames, or the handshake completed): the signal
  /// for a paused producer to resume writing.  May fire from inside
  /// datagram processing — defer any heavy reaction to the event loop.
  using StreamResumeHandler = std::function<void(std::uint32_t session_id)>;
  void set_stream_resume_handler(StreamResumeHandler h) {
    on_stream_resume_ = std::move(h);
  }

  /// Highest sending-buffer depth ever observed on the stream right after a
  /// `stream_write` (packets; 0 for unknown streams).  The backpressure
  /// regression test pins this against `stream_buffer_packets`.
  [[nodiscard]] std::size_t stream_buffer_high_water(
      std::uint32_t session_id) const;

  /// The stream's session manager (null when unknown) — state, epoch,
  /// counters for tests and status output.
  [[nodiscard]] lams::SessionSender* stream(std::uint32_t session_id);
  [[nodiscard]] const sim::DlcStats* stream_stats(
      std::uint32_t session_id) const;
  /// @}

  /// \name Inbound streams
  /// @{

  /// Contiguous re-sequenced bytes of an inbound stream.  Called as data
  /// becomes deliverable; spans are valid only for the call.
  using InboundDataHandler = std::function<void(
      PeerId, std::uint32_t session_id, std::span<const std::uint8_t>)>;
  void set_inbound_data_handler(InboundDataHandler h) {
    on_inbound_data_ = std::move(h);
  }

  /// An inbound stream ended: `clean` means CLOSE arrived with every byte
  /// accounted for (no reassembly holes).
  using InboundEndHandler =
      std::function<void(PeerId, std::uint32_t session_id, bool clean)>;
  void set_inbound_end_handler(InboundEndHandler h) {
    on_inbound_end_ = std::move(h);
  }

  [[nodiscard]] const sim::DlcStats* inbound_stats(
      PeerId peer, std::uint32_t session_id) const;
  /// @}

  /// \name Status snapshots
  ///
  /// Everything the introspection endpoint publishes about a stream, read
  /// in one pass so a reported line is internally consistent (the daemon is
  /// single-threaded; the snapshot cannot race the protocol).
  /// @{

  /// One outbound stream as seen right now.
  struct OutboundStatus {
    std::uint32_t session_id = 0;
    PeerId peer = 0;
    lams::SessionSender::State state = lams::SessionSender::State::kIdle;
    std::uint32_t epoch = 0;
    std::uint32_t resync_attempts = 0;  ///< Session-layer RESYNC entries.
    lams::LamsSender::Mode mode = lams::LamsSender::Mode::kNormal;
    std::size_t outstanding_frames = 0;  ///< Unresolved I-frames in flight.
    std::size_t buffer_depth = 0;        ///< Sending buffer, packets.
    std::size_t buffer_high_water = 0;   ///< Peak buffer depth ever seen.
    double rate_factor = 1.0;            ///< Stop-Go pacing multiplier.
    std::uint32_t next_chunk = 0;        ///< Stream bytes / chunk_bytes.
    std::uint64_t packets_submitted = 0;
    std::uint64_t packets_resolved = 0;
    std::uint64_t iframe_tx = 0;
    std::uint64_t iframe_retx = 0;
    std::uint64_t control_tx = 0;
    std::uint64_t request_naks = 0;
    std::uint64_t audit_trips = 0;
    std::uint64_t resyncs_completed = 0;
  };

  /// One inbound stream as seen right now.
  struct InboundStatus {
    PeerId peer = 0;
    std::uint32_t session_id = 0;
    bool in_session = false;
    bool ended = false;
    std::uint32_t epoch = 0;
    std::uint32_t inits_accepted = 0;
    std::size_t held_packets = 0;   ///< Parked out-of-order chunks.
    std::uint32_t next_index = 0;   ///< Chunks handed up contiguously.
    std::uint64_t packets_delivered = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t checkpoints_sent = 0;
    std::uint64_t naks_generated = 0;
    std::uint64_t iframe_corrupted_rx = 0;
    std::uint64_t control_corrupted_rx = 0;
  };

  /// Snapshot every outbound stream, sorted by session id.  Non-const only
  /// because `SessionSender::inner()` is.
  [[nodiscard]] std::vector<OutboundStatus> outbound_status();

  /// Snapshot every inbound stream, sorted by (peer, session id).
  /// Non-const for the same `inner()` reason.
  [[nodiscard]] std::vector<InboundStatus> inbound_status();
  /// @}

  /// \name Counters
  /// @{
  [[nodiscard]] std::uint64_t undecodable() const noexcept {
    return undecodable_;
  }
  [[nodiscard]] std::uint64_t unroutable() const noexcept {
    return unroutable_;
  }
  /// Per-reason breakdown of `undecodable()`: datagrams the envelope layer
  /// refused (length mismatches, bad magic, reserved flags, ...).
  [[nodiscard]] const frame::EnvelopeRejectCounts& envelope_rejects()
      const noexcept {
    return envelope_rejects_;
  }
  /// Per-reason breakdown of `undecodable()`: envelopes whose inner frame
  /// the codec refused (bad FCS, length overruns, ...).
  [[nodiscard]] const frame::DecodeRejectCounts& frame_rejects()
      const noexcept {
    return frame_rejects_;
  }
  [[nodiscard]] std::size_t outbound_count() const noexcept {
    return tx_.size();
  }
  [[nodiscard]] std::size_t inbound_count() const noexcept {
    return rx_.size();
  }
  /// @}

 private:
  struct TxSession;
  struct RxSession;

  void on_datagram(PeerId peer, std::span<const std::uint8_t> bytes);
  void route_to_receiver(PeerId peer, std::uint32_t sid, frame::Frame f,
                         frame::PacketId packet_id, bool is_data);
  void route_to_sender(std::uint32_t sid, frame::Frame f);
  void on_rx_packet(RxSession& rx, const sim::Packet& p);
  void flush_rx(RxSession& rx);
  void end_rx(RxSession& rx, bool in_session_now);

  [[nodiscard]] static std::uint64_t rx_key(PeerId peer,
                                            std::uint32_t sid) noexcept {
    return (static_cast<std::uint64_t>(peer) << 32) | sid;
  }

  EventLoop& loop_;
  Transport& transport_;
  Config cfg_;
  std::unordered_map<std::uint32_t, std::unique_ptr<TxSession>> tx_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RxSession>> rx_;
  StreamStateHandler on_stream_state_;
  StreamResumeHandler on_stream_resume_;
  InboundDataHandler on_inbound_data_;
  InboundEndHandler on_inbound_end_;
  std::uint64_t undecodable_ = 0;
  std::uint64_t unroutable_ = 0;
  frame::EnvelopeRejectCounts envelope_rejects_;
  frame::DecodeRejectCounts frame_rejects_;
};

}  // namespace lamsdlc::rt

#include "lamsdlc/rt/session_mux.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <variant>

#include "lamsdlc/frame/envelope.hpp"

namespace lamsdlc::rt {

// ---------------------------------------------------------------------------
// Per-stream state

struct SessionMux::TxSession {
  NetChannel channel;
  sim::DlcStats stats;
  lams::SessionSender sender;
  PeerId peer;
  std::uint32_t next_chunk = 0;
  std::size_t buffer_high_water = 0;

  TxSession(EventLoop& loop, Transport& t, const NetChannel::Config& ccfg,
            const lams::SessionConfig& scfg, obs::EventBus* bus)
      : channel{loop, t, ccfg},
        sender{loop.sim(), channel, scfg, &stats, bus},
        peer{ccfg.peer} {}
};

struct SessionMux::RxSession final : sim::PacketListener {
  SessionMux& mux;
  PeerId peer;
  std::uint32_t sid;
  NetChannel channel;  ///< Feedback path (checkpoints, session ACKs).
  sim::DlcStats stats;
  lams::SessionReceiver receiver;
  /// Out-of-order chunks parked until their predecessors arrive.
  std::map<std::uint32_t, std::vector<std::uint8_t>> held;
  std::uint32_t next_index = 0;
  bool ended = false;

  RxSession(SessionMux& m, EventLoop& loop, Transport& t,
            const NetChannel::Config& ccfg, const lams::SessionConfig& scfg,
            obs::EventBus* bus)
      : mux{m},
        peer{ccfg.peer},
        sid{ccfg.session_id},
        channel{loop, t, ccfg},
        receiver{loop.sim(), channel, scfg, this, &stats, bus} {
    receiver.set_lifecycle_callback(
        [this](bool in_session, std::uint32_t) { mux.end_rx(*this, in_session); });
  }

  void on_packet(const sim::Packet& p, Time) override {
    mux.on_rx_packet(*this, p);
  }
};

// ---------------------------------------------------------------------------

SessionMux::SessionMux(EventLoop& loop, Transport& transport, Config cfg)
    : loop_{loop}, transport_{transport}, cfg_{std::move(cfg)} {
  // Each of these would wedge the protocol thread instead of failing: an
  // endless segmentation loop, an infinite serialization time, or a
  // checkpoint cadence that reschedules itself at the same instant.
  if (cfg_.chunk_bytes == 0) {
    throw std::invalid_argument("SessionMux: chunk_bytes must be positive");
  }
  if (!(cfg_.data_rate_bps > 0) || !std::isfinite(cfg_.data_rate_bps)) {
    throw std::invalid_argument(
        "SessionMux: data_rate_bps must be positive and finite");
  }
  if (cfg_.session.lams.checkpoint_interval <= Time{}) {
    throw std::invalid_argument(
        "SessionMux: checkpoint_interval must be positive");
  }
  if (cfg_.decode_limits.seq_modulus == 0) {
    cfg_.decode_limits.seq_modulus = cfg_.session.lams.modulus;
  }
  transport_.set_recv_handler(
      [this](PeerId peer, std::span<const std::uint8_t> bytes) {
        on_datagram(peer, bytes);
      });
}

SessionMux::~SessionMux() { transport_.set_recv_handler({}); }

// ------------------------------------------------------- outbound streams --

void SessionMux::open_stream(PeerId peer, std::uint32_t session_id) {
  NetChannel::Config ccfg;
  ccfg.data_rate_bps = cfg_.data_rate_bps;
  ccfg.max_one_way = cfg_.max_one_way;
  ccfg.session_id = session_id;
  ccfg.peer = peer;
  ccfg.to_receiver = true;
  obs::EventBus* bus =
      cfg_.bus_for ? cfg_.bus_for(session_id, /*sender_side=*/true) : nullptr;
  lams::SessionConfig scfg = cfg_.session;
  if (scfg.lams.send_buffer_capacity ==
          std::numeric_limits<std::size_t>::max() &&
      cfg_.stream_buffer_packets > 0) {
    scfg.lams.send_buffer_capacity = cfg_.stream_buffer_packets;
  }
  auto tx = std::make_unique<TxSession>(loop_, transport_, ccfg, scfg, bus);
  tx->sender.set_state_callback(
      [this, session_id](lams::SessionSender::State s) {
        if (on_stream_state_) on_stream_state_(session_id, s);
      });
  tx->sender.set_can_accept_callback([this, session_id] {
    if (on_stream_resume_) on_stream_resume_(session_id);
  });
  TxSession& ref = *tx;
  tx_[session_id] = std::move(tx);
  ref.sender.open();
}

bool SessionMux::stream_write(std::uint32_t session_id,
                              std::span<const std::uint8_t> bytes) {
  const auto it = tx_.find(session_id);
  if (it == tx_.end()) return false;
  TxSession& tx = *it->second;
  for (std::size_t off = 0; off < bytes.size(); off += cfg_.chunk_bytes) {
    const std::size_t n = std::min<std::size_t>(cfg_.chunk_bytes,
                                                bytes.size() - off);
    sim::Packet p;
    p.id = (static_cast<frame::PacketId>(session_id) << 32) | tx.next_chunk;
    p.bytes = static_cast<std::uint32_t>(n);
    p.created_at = loop_.now();
    p.message_id = session_id;
    p.msg_index = tx.next_chunk;
    p.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                  bytes.begin() + static_cast<std::ptrdiff_t>(off + n));
    ++tx.next_chunk;
    tx.sender.submit(std::move(p));
    tx.buffer_high_water =
        std::max(tx.buffer_high_water, tx.sender.sending_buffer_depth());
  }
  return true;
}

void SessionMux::stream_close(std::uint32_t session_id) {
  const auto it = tx_.find(session_id);
  if (it != tx_.end()) it->second->sender.close();
}

void SessionMux::drop_stream(std::uint32_t session_id) {
  tx_.erase(session_id);
}

bool SessionMux::stream_accepting(std::uint32_t session_id) const {
  const auto it = tx_.find(session_id);
  return it != tx_.end() && it->second->sender.accepting();
}

std::size_t SessionMux::stream_buffer_high_water(
    std::uint32_t session_id) const {
  const auto it = tx_.find(session_id);
  return it == tx_.end() ? 0 : it->second->buffer_high_water;
}

lams::SessionSender* SessionMux::stream(std::uint32_t session_id) {
  const auto it = tx_.find(session_id);
  return it == tx_.end() ? nullptr : &it->second->sender;
}

const sim::DlcStats* SessionMux::stream_stats(
    std::uint32_t session_id) const {
  const auto it = tx_.find(session_id);
  return it == tx_.end() ? nullptr : &it->second->stats;
}

// ------------------------------------------------------ status snapshots --

std::vector<SessionMux::OutboundStatus> SessionMux::outbound_status() {
  std::vector<OutboundStatus> out;
  out.reserve(tx_.size());
  for (auto& [sid, tx] : tx_) {
    lams::LamsSender& inner = tx->sender.inner();
    OutboundStatus s;
    s.session_id = sid;
    s.peer = tx->peer;
    s.state = tx->sender.state();
    s.epoch = tx->sender.epoch();
    s.resync_attempts = tx->sender.resyncs();
    s.mode = inner.mode();
    s.outstanding_frames = inner.outstanding_frames();
    s.buffer_depth = inner.sending_buffer_depth();
    s.buffer_high_water = tx->buffer_high_water;
    s.rate_factor = inner.rate_factor();
    s.next_chunk = tx->next_chunk;
    s.packets_submitted = tx->stats.packets_submitted;
    s.packets_resolved = inner.packets_resolved();
    s.iframe_tx = tx->stats.iframe_tx;
    s.iframe_retx = tx->stats.iframe_retx;
    s.control_tx = tx->stats.control_tx;
    s.request_naks = inner.request_naks_sent();
    s.audit_trips = inner.self_audit_trips();
    s.resyncs_completed = inner.resyncs_completed();
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const OutboundStatus& a, const OutboundStatus& b) {
              return a.session_id < b.session_id;
            });
  return out;
}

std::vector<SessionMux::InboundStatus> SessionMux::inbound_status() {
  std::vector<InboundStatus> out;
  out.reserve(rx_.size());
  for (auto& [key, rx] : rx_) {
    lams::LamsReceiver& inner = rx->receiver.inner();
    InboundStatus s;
    s.peer = rx->peer;
    s.session_id = rx->sid;
    s.in_session = rx->receiver.in_session();
    s.ended = rx->ended;
    s.epoch = rx->receiver.epoch();
    s.inits_accepted = rx->receiver.inits_accepted();
    s.held_packets = rx->held.size();
    s.next_index = rx->next_index;
    s.packets_delivered = rx->stats.packets_delivered;
    s.duplicates = rx->stats.duplicates_delivered;
    s.checkpoints_sent = inner.checkpoints_sent();
    s.naks_generated = inner.naks_generated();
    s.iframe_corrupted_rx = rx->stats.iframe_corrupted_rx;
    s.control_corrupted_rx = rx->stats.control_corrupted_rx;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const InboundStatus& a, const InboundStatus& b) {
              return a.peer != b.peer ? a.peer < b.peer
                                      : a.session_id < b.session_id;
            });
  return out;
}

// -------------------------------------------------------- inbound streams --

const sim::DlcStats* SessionMux::inbound_stats(
    PeerId peer, std::uint32_t session_id) const {
  const auto it = rx_.find(rx_key(peer, session_id));
  return it == rx_.end() ? nullptr : &it->second->stats;
}

void SessionMux::on_rx_packet(RxSession& rx, const sim::Packet& p) {
  const auto index = static_cast<std::uint32_t>(p.id & 0xFFFFFFFFu);
  if (index < rx.next_index || rx.held.contains(index)) {
    // RESYNC re-delivery (or a duplicate fault): the paper moves
    // de-duplication to the destination — this is the destination.
    ++rx.stats.duplicates_delivered;
    return;
  }
  ++rx.stats.packets_delivered;
  auto& slot = rx.held[index];
  if (!p.data.empty()) {
    slot = p.data;
  } else {
    slot.assign(p.bytes, 0);  // length-only workload (simulated traffic)
  }
  flush_rx(rx);
}

void SessionMux::flush_rx(RxSession& rx) {
  while (!rx.held.empty() && rx.held.begin()->first == rx.next_index) {
    const std::vector<std::uint8_t>& chunk = rx.held.begin()->second;
    if (on_inbound_data_) on_inbound_data_(rx.peer, rx.sid, chunk);
    rx.held.erase(rx.held.begin());
    ++rx.next_index;
  }
}

void SessionMux::end_rx(RxSession& rx, bool in_session_now) {
  if (in_session_now) {
    // INIT (first, re-INIT, or RESYNC epoch bump): the byte stream
    // continues — reassembly state must survive a resynchronization.
    rx.ended = false;
    return;
  }
  // CLOSE: every chunk below next_index was handed up contiguously; any
  // parked chunk means a hole the drain should have made impossible.
  rx.ended = true;
  if (on_inbound_end_) on_inbound_end_(rx.peer, rx.sid, rx.held.empty());
}

// ------------------------------------------------------------- datagrams --

void SessionMux::on_datagram(PeerId peer,
                             std::span<const std::uint8_t> bytes) {
  frame::EnvelopeReject env_why = frame::EnvelopeReject::kNone;
  const auto env = frame::decode_envelope(bytes, &env_why);
  if (!env.has_value()) {
    ++undecodable_;
    envelope_rejects_.count(env_why);
    return;
  }
  frame::DecodeReject frame_why = frame::DecodeReject::kNone;
  auto f = frame::decode(env->payload, cfg_.decode_limits, &frame_why);
  if (!f.has_value()) {
    // Damaged in flight (ImpairedTransport, or a real network).  Unlike the
    // simulated channel there is no corrupted husk to deliver — a lost
    // datagram and an unreadable one are the same event up here, and the
    // checkpoint machinery recovers both.
    ++undecodable_;
    frame_rejects_.count(frame_why);
    return;
  }
  if (env->to_receiver) {
    route_to_receiver(peer, env->session_id, std::move(*f), env->packet_id,
                      env->has_packet_id);
  } else {
    route_to_sender(env->session_id, std::move(*f));
  }
}

void SessionMux::route_to_receiver(PeerId peer, std::uint32_t sid,
                                   frame::Frame f, frame::PacketId packet_id,
                                   bool is_data) {
  const std::uint64_t key = rx_key(peer, sid);
  auto it = rx_.find(key);

  // Peer restart / session-id reuse: a *fresh* initiator starts over at a
  // low epoch.  If our old receiver state is closed, tear it down so the
  // new INIT is judged against a clean epoch history instead of being
  // discarded as stale.
  if (it != rx_.end() && !f.corrupted) {
    if (const auto* s = std::get_if<frame::SessionFrame>(&f.body)) {
      if (s->kind == frame::SessionFrame::Kind::kInit &&
          !it->second->receiver.in_session() &&
          s->epoch <= it->second->receiver.epoch()) {
        rx_.erase(it);
        it = rx_.end();
      }
    }
  }

  if (it == rx_.end()) {
    if (!cfg_.accept_inbound) {
      ++unroutable_;
      return;
    }
    NetChannel::Config ccfg;
    ccfg.data_rate_bps = cfg_.data_rate_bps;
    ccfg.max_one_way = cfg_.max_one_way;
    ccfg.session_id = sid;
    ccfg.peer = peer;
    ccfg.to_receiver = false;  // our replies travel the feedback direction
    obs::EventBus* bus =
        cfg_.bus_for ? cfg_.bus_for(sid, /*sender_side=*/false) : nullptr;
    it = rx_.emplace(key, std::make_unique<RxSession>(
                              *this, loop_, transport_, ccfg, cfg_.session,
                              bus))
             .first;
  }

  if (is_data) {
    // Restore the identity the link codec intentionally omits.
    if (auto* i = std::get_if<frame::IFrame>(&f.body)) {
      i->packet_id = packet_id;
    }
  }
  it->second->receiver.on_frame(std::move(f));
}

void SessionMux::route_to_sender(std::uint32_t sid, frame::Frame f) {
  const auto it = tx_.find(sid);
  if (it == tx_.end()) {
    ++unroutable_;
    return;
  }
  if (auto* cp = std::get_if<frame::CheckpointFrame>(&f.body)) {
    // Checkpoint age normalization: stamp the oldest instant this
    // checkpoint could have been generated, per the configured delay
    // bound, so the release rule reasons in local time only.
    const Time floor_at = loop_.now() - cfg_.max_one_way;
    cp->generated_at = std::max(Time{}, floor_at);
  }
  it->second->sender.on_frame(std::move(f));
}

}  // namespace lamsdlc::rt

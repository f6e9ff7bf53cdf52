#include "lamsdlc/rt/net_channel.hpp"

#include <algorithm>
#include <utility>
#include <variant>

namespace lamsdlc::rt {

NetChannel::~NetChannel() { loop_.sim().cancel(serializer_timer_); }

Time NetChannel::tx_time(const frame::Frame& f) const {
  const double bits = static_cast<double>(frame::encoded_size(f)) * 8.0;
  return Time::seconds(bits / cfg_.data_rate_bps);
}

Time NetChannel::propagation_at(Time) const {
  return cfg_.max_one_way + std::max(Time{}, loop_.wall_now() - loop_.now());
}

void NetChannel::send(frame::Frame f) {
  if (busy_) {
    queue_.push_back(std::move(f));
    return;
  }
  transmit(std::move(f));
}

void NetChannel::transmit(frame::Frame f) {
  const Time tx = tx_time(f);

  frame::Envelope env;
  env.session_id = cfg_.session_id;
  env.to_receiver = cfg_.to_receiver;
  if (const auto* i = std::get_if<frame::IFrame>(&f.body)) {
    env.has_packet_id = true;
    env.packet_id = i->packet_id;
  }
  frame::encode_into(f, frame_buf_);
  env.payload = frame_buf_;  // copy; env_buf_ holds the assembled datagram
  frame::encode_envelope_into(env, env_buf_);
  if (transport_.send(cfg_.peer, env_buf_)) {
    ++sent_;
  } else {
    // A refused datagram is a lost frame; the ARQ recovers it like any
    // other loss.  Counted so operators can tell congestion from protocol
    // retransmission.
    ++send_failures_;
  }

  // Serializer model: the wire is occupied for the frame's tx_time even
  // though the datagram already left — this is what paces the sender.
  busy_ = true;
  serializer_timer_ = loop_.sim().schedule_in(tx, [this] { serializer_done(); });
}

void NetChannel::serializer_done() {
  if (!queue_.empty()) {
    frame::Frame next = std::move(queue_.front());
    queue_.pop_front();
    transmit(std::move(next));
    return;
  }
  busy_ = false;
  if (idle_cb_) idle_cb_();
}

}  // namespace lamsdlc::rt

#include "lamsdlc/nbdt/nbdt.hpp"

#include <algorithm>
#include <utility>

namespace lamsdlc::nbdt {

// ---------------------------------------------------------------- sender --

NbdtSender::NbdtSender(Simulator& sim, link::SimplexChannel& data_out,
                       NbdtConfig cfg, sim::DlcStats* stats)
    : sim_{sim},
      out_{data_out},
      cfg_{cfg},
      stats_{stats} {
  out_.set_idle_callback([this] { try_send(); });
}

NbdtSender::~NbdtSender() { sim_.cancel(tail_timer_); }

void NbdtSender::submit(sim::Packet p) {
  if (stats_) ++stats_->packets_submitted;
  queue_.push_back(p);
  if (stats_) {
    stats_->send_buffer.update(sim_.now(),
                               static_cast<double>(sending_buffer_depth()));
  }
  try_send();
}

std::size_t NbdtSender::sending_buffer_depth() const {
  return queue_.size() + window_.size();
}

bool NbdtSender::idle() const {
  return queue_.empty() && window_.empty() && retx_queue_.empty();
}

void NbdtSender::try_send() {
  if (out_.busy() || !out_.up()) return;

  // Continuous mode: retransmissions mix with new traffic; holes first
  // (they block the receiver's in-sequence delivery).
  std::uint64_t number;
  Pending* p = nullptr;
  while (!retx_queue_.empty()) {
    auto it = window_.find(retx_queue_.front());
    if (it == window_.end()) {
      retx_queue_.pop_front();  // acknowledged meanwhile
      continue;
    }
    number = it->first;
    p = &it->second;
    retx_queue_.pop_front();
    break;
  }
  if (p == nullptr) {
    if (queue_.empty()) return;
    // Multiphase: the retransmission phase ends only when every resent
    // frame has been confirmed; until then, new traffic waits.
    if (cfg_.multiphase && unconfirmed_retx_ > 0) return;
    number = next_number_++;
    auto it = window_.emplace(number, Pending{queue_.front(), Time{}, Time{}, 0})
                  .first;
    queue_.pop_front();
    p = &it->second;
  }

  ++p->attempts;
  if (p->attempts == 1) p->first_tx = sim_.now();
  if (p->attempts == 2) ++unconfirmed_retx_;  // entered the retransmission set
  p->last_tx = sim_.now();

  frame::Frame f;
  // Absolute numbering: the 32-bit wire field carries the full number.
  f.body = frame::IFrame{static_cast<frame::Seq>(number), p->packet.id,
                         p->packet.bytes, {}};
  if (stats_) {
    ++stats_->iframe_tx;
    if (p->attempts > 1) ++stats_->iframe_retx;
  }
  if (!sim_.pending(tail_timer_)) {
    tail_timer_ = sim_.schedule_in(cfg_.timeout, [this] { on_tail_timer(); });
  }
  out_.send(std::move(f));
}

void NbdtSender::release(std::uint64_t number) {
  auto it = window_.find(number);
  if (it == window_.end()) return;
  if (stats_) {
    stats_->holding_time_s.add((sim_.now() - it->second.first_tx).sec());
  }
  if (it->second.attempts >= 2 && unconfirmed_retx_ > 0) --unconfirmed_retx_;
  window_.erase(it);
}

void NbdtSender::queue_retx(std::uint64_t number) {
  auto it = window_.find(number);
  if (it == window_.end()) return;
  // Rate-limit: a hole already resent within the guard is in flight.
  if (it->second.last_tx + cfg_.retx_guard > sim_.now()) return;
  if (std::find(retx_queue_.begin(), retx_queue_.end(), number) !=
      retx_queue_.end()) {
    return;
  }
  retx_queue_.push_back(number);
}

void NbdtSender::handle_status(const frame::SelectiveAckFrame& st) {
  // Completely selective release: everything below base plus everything in
  // (base, highest] that is not reported missing.
  while (!window_.empty() && window_.begin()->first < st.base) {
    release(window_.begin()->first);
  }
  if (st.any_seen) {
    std::vector<std::uint64_t> covered;
    for (const auto& [num, p] : window_) {
      if (num > st.highest) break;
      if (num < st.base) continue;
      if (!std::binary_search(st.missing.begin(), st.missing.end(),
                              static_cast<frame::Seq>(num))) {
        covered.push_back(num);
      }
    }
    for (const std::uint64_t num : covered) release(num);
    for (const frame::Seq m : st.missing) queue_retx(m);
  }
  if (stats_) {
    stats_->send_buffer.update(sim_.now(),
                               static_cast<double>(sending_buffer_depth()));
  }
  try_send();
}

void NbdtSender::on_tail_timer() {
  tail_timer_ = 0;
  if (window_.empty()) {
    return;
  }
  // Anything unacknowledged for a full timeout is re-offered (covers tails
  // the status reports cannot name and lost status runs).
  for (const auto& [num, p] : window_) {
    if (p.last_tx + cfg_.timeout <= sim_.now()) {
      queue_retx(num);
    }
  }
  tail_timer_ = sim_.schedule_in(cfg_.timeout, [this] { on_tail_timer(); });
  try_send();
}

void NbdtSender::on_frame(frame::Frame f) {
  if (f.corrupted) {
    if (stats_) ++stats_->control_corrupted_rx;
    return;
  }
  if (const auto* st = std::get_if<frame::SelectiveAckFrame>(&f.body)) {
    handle_status(*st);
  }
}

// -------------------------------------------------------------- receiver --

NbdtReceiver::NbdtReceiver(Simulator& sim, link::SimplexChannel& control_out,
                           NbdtConfig cfg, sim::PacketListener* listener,
                           sim::DlcStats* stats)
    : sim_{sim},
      out_{control_out},
      cfg_{cfg},
      listener_{listener},
      stats_{stats} {}

NbdtReceiver::~NbdtReceiver() { sim_.cancel(status_timer_); }

void NbdtReceiver::start() {
  if (running_) return;
  running_ = true;
  status_timer_ = sim_.schedule_in(cfg_.status_interval, [this] { status_tick(); });
}

void NbdtReceiver::stop() {
  running_ = false;
  sim_.cancel(status_timer_);
  status_timer_ = 0;
}

void NbdtReceiver::status_tick() {
  if (!running_) return;
  frame::SelectiveAckFrame st;
  st.base = static_cast<frame::Seq>(base_);
  st.any_seen = highest_plus1_ > 0;
  st.highest = highest_plus1_ > 0
                   ? static_cast<frame::Seq>(highest_plus1_ - 1)
                   : 0;
  for (std::uint64_t n = base_; n < highest_plus1_; ++n) {
    if (!held_.contains(n)) st.missing.push_back(static_cast<frame::Seq>(n));
  }
  ++statuses_;
  if (stats_) ++stats_->control_tx;
  frame::Frame f;
  f.body = std::move(st);
  out_.send(std::move(f));
  status_timer_ = sim_.schedule_in(cfg_.status_interval, [this] { status_tick(); });
}

void NbdtReceiver::deliver_ready() {
  while (held_.contains(base_)) {
    const sim::Packet p = held_.at(base_);
    held_.erase(base_);
    ++base_;
    sim_.schedule_in(cfg_.t_proc, [this, p] {
      if (listener_) listener_->on_packet(p, sim_.now());
    });
  }
  if (stats_) {
    stats_->recv_buffer.update(sim_.now(), static_cast<double>(held_.size()));
  }
}

void NbdtReceiver::on_frame(frame::Frame f) {
  const auto* in = std::get_if<frame::IFrame>(&f.body);
  if (in == nullptr) {
    if (f.corrupted && stats_) ++stats_->control_corrupted_rx;
    return;
  }
  if (f.corrupted) {
    if (stats_) ++stats_->iframe_corrupted_rx;
    return;  // absolute number unreadable; the status gap names it later
  }
  const auto number = static_cast<std::uint64_t>(in->seq);
  if (number < base_ || held_.contains(number)) {
    return;  // duplicate of something delivered or already parked
  }
  held_.emplace(number, sim::Packet{in->packet_id, in->payload_bytes, Time{}, 0,
                                    0, 1, in->payload});
  highest_plus1_ = std::max(highest_plus1_, number + 1);
  if (stats_) {
    stats_->recv_buffer.update(sim_.now(), static_cast<double>(held_.size()));
  }
  deliver_ready();
}

}  // namespace lamsdlc::nbdt

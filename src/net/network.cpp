#include "lamsdlc/net/network.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace lamsdlc::net {
namespace {

/// Splits a channel's arrivals between the two protocol flows sharing it:
/// information frames (and the sender-issued Request-NAK poll) belong to the
/// *incoming* data flow's receiver; checkpoint-class commands belong to the
/// *outgoing* data flow's sender, whose acknowledgements ride this channel.
class DemuxSink final : public link::FrameSink {
 public:
  DemuxSink(link::FrameSink* to_receiver, link::FrameSink* to_sender)
      : to_receiver_{to_receiver}, to_sender_{to_sender} {}

  void on_frame(frame::Frame f) override {
    const bool for_receiver =
        std::holds_alternative<frame::IFrame>(f.body) ||
        std::holds_alternative<frame::HdlcIFrame>(f.body) ||
        std::holds_alternative<frame::RequestNakFrame>(f.body);
    link::FrameSink* sink = for_receiver ? to_receiver_ : to_sender_;
    if (sink != nullptr) sink->on_frame(std::move(f));
  }

 private:
  link::FrameSink* to_receiver_;
  link::FrameSink* to_sender_;
};

}  // namespace

// ------------------------------------------------------------- PdesState --

/// Everything the parallel engine owns: one kernel per partition, a worker
/// pool advancing them in lockstep windows, the cross-partition staging
/// buffers, the delivery/failure journals replayed at barriers, and the
/// global-operation queue.  Within a window the partitions share no mutable
/// state: channels and protocol endpoints live with their owning partition,
/// the staging/journal vectors are written only by their own partition's
/// thread, and everything cross-cutting (routing tables, tracker,
/// resequencers, link toggles) is touched only at barriers while the
/// workers are parked on the condition variable.
struct Network::PdesState {
  std::size_t partitions = 1;
  std::size_t nodes_hint = 0;
  std::vector<std::unique_ptr<Simulator>> sims;

  /// Cross-partition global operation, run at a window barrier.
  struct GlobalOp {
    Time at;
    std::uint64_t seq;  ///< Registration order: the tie-break among equals.
    std::function<void()> fn;
    bool blocks_completion;  ///< May inject traffic (see `Network::at`).
  };
  std::vector<GlobalOp> ops;  ///< Min-heap by (at, seq) under `op_later`.
  std::uint64_t next_op_seq = 0;
  static bool op_later(const GlobalOp& x, const GlobalOp& y) noexcept {
    if (x.at != y.at) return x.at > y.at;
    return x.seq > y.seq;
  }

  /// A frame crossing partitions: staged by the *source* partition during
  /// its window, pushed into the receiver-side ingress at the barrier.
  /// Keyed by source partition so equal-arrival frames of one channel (one
  /// source partition by construction) keep their send order at every
  /// partition count.
  struct StagedFrame {
    link::ChannelIngress* ingress;
    Time arrival;
    std::uint64_t epoch;
    frame::Frame f;
  };
  std::vector<std::vector<StagedFrame>> staged;

  /// End-to-end delivery recorded during a window, replayed into the shared
  /// resequencer/tracker at the barrier in (time, node) order.  Same-key
  /// entries always come from one partition (a node lives in exactly one),
  /// so a stable sort over the partition-ordered concatenation is canonical.
  struct Delivery {
    Time at;
    NodeId node;
    sim::Packet p;
  };
  std::vector<std::vector<Delivery>> journal;

  /// A LAMS sender declared failure during a window; the network-layer
  /// reaction (reroute + residue handoff) is global, so it is deferred to
  /// the barrier and processed in (time, link, from) order.
  struct Failure {
    Time at;
    Flow* flow;
  };
  std::vector<std::vector<Failure>> failures;

  // Persistent worker pool: one thread per partition, woken per window.
  std::vector<std::thread> workers;
  std::mutex m;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  std::uint64_t round = 0;
  std::size_t pending = 0;
  Time window_end{};
  bool shutdown = false;
  std::vector<std::exception_ptr> errors;

  ~PdesState() { stop_pool(); }

  void worker_main(std::size_t idx) {
    std::uint64_t seen = 0;
    for (;;) {
      Time end{};
      {
        std::unique_lock lk{m};
        cv_start.wait(lk, [&] { return shutdown || round != seen; });
        if (shutdown) return;
        seen = round;
        end = window_end;
      }
      try {
        sims[idx]->run_before(end);
      } catch (...) {
        std::lock_guard lk{m};
        errors[idx] = std::current_exception();
      }
      {
        std::lock_guard lk{m};
        if (--pending == 0) cv_done.notify_one();
      }
    }
  }

  void ensure_pool() {
    if (sims.size() <= 1 || !workers.empty()) return;
    workers.reserve(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
      workers.emplace_back([this, i] { worker_main(i); });
    }
  }

  /// Advance every partition kernel through [now, end) — the parallel heart
  /// of a window.  Rethrows the first worker exception (e.g. an ingress
  /// lookahead violation) on the coordinator thread.
  void run_window(Time end) {
    if (sims.size() == 1) {  // the serial reference: no threads, same path
      sims[0]->run_before(end);
      return;
    }
    ensure_pool();
    {
      std::lock_guard lk{m};
      window_end = end;
      pending = sims.size();
      ++round;
    }
    cv_start.notify_all();
    {
      std::unique_lock lk{m};
      cv_done.wait(lk, [&] { return pending == 0; });
    }
    for (auto& e : errors) {
      if (e) {
        std::exception_ptr ep = e;
        e = nullptr;
        std::rethrow_exception(ep);
      }
    }
  }

  void stop_pool() {
    {
      std::lock_guard lk{m};
      shutdown = true;
    }
    cv_start.notify_all();
    for (auto& w : workers) {
      if (w.joinable()) w.join();
    }
    workers.clear();
  }
};

// ------------------------------------------------------------------ Flow --

Flow::Flow(Simulator& tx_sim, Simulator& rx_sim, Network& net, LinkId link,
           NodeId from, NodeId to, link::SimplexChannel& data,
           link::SimplexChannel& control, const LinkSpec& spec)
    : link_{link}, from_{from}, to_{to} {
  // Two-kernel flows split the stats so the receiver partition never writes
  // into the sender partition's block mid-window.
  sim::DlcStats* rx_stats = (&tx_sim == &rx_sim) ? &stats_ : &rx_stats_;
  switch (spec.protocol) {
    case sim::Protocol::kLams:
      lams_tx_ = std::make_unique<lams::LamsSender>(
          tx_sim, data, spec.lams, &stats_,
          spec.bus_for ? spec.bus_for(from, to, /*sender_side=*/true)
                       : nullptr);
      lams_rx_ = std::make_unique<lams::LamsReceiver>(
          rx_sim, control, spec.lams, &net.node(to), rx_stats,
          spec.bus_for ? spec.bus_for(from, to, /*sender_side=*/false)
                       : nullptr);
      lams_rx_->start();
      dlc_sender_ = lams_tx_.get();
      receiver_sink_ = lams_rx_.get();
      sender_sink_ = lams_tx_.get();
      break;
    case sim::Protocol::kSrHdlc:
      sr_tx_ = std::make_unique<hdlc::SrSender>(tx_sim, data, spec.hdlc,
                                                &stats_);
      sr_rx_ = std::make_unique<hdlc::SrReceiver>(rx_sim, control, spec.hdlc,
                                                  &net.node(to), rx_stats);
      dlc_sender_ = sr_tx_.get();
      receiver_sink_ = sr_rx_.get();
      sender_sink_ = sr_tx_.get();
      break;
    case sim::Protocol::kGbnHdlc:
      gbn_tx_ = std::make_unique<hdlc::GbnSender>(tx_sim, data, spec.hdlc,
                                                  &stats_);
      gbn_rx_ = std::make_unique<hdlc::GbnReceiver>(rx_sim, control, spec.hdlc,
                                                    &net.node(to), rx_stats);
      dlc_sender_ = gbn_tx_.get();
      receiver_sink_ = gbn_rx_.get();
      sender_sink_ = gbn_tx_.get();
      break;
    case sim::Protocol::kNbdt:
      // The NBDT baseline exists for single-link comparisons (bench E16);
      // its selective-status demux is not wired into the network module.
      throw std::invalid_argument(
          "net::Network does not support NBDT flows; use kLams or an HDLC "
          "variant");
  }
}

// ------------------------------------------------------------------ Node --

void Node::on_packet(const sim::Packet& p, Time at) {
  const PacketHeader* h = net_.header(p.id);
  if (h == nullptr) return;  // not network traffic (protocol-level test rig)
  if (h->dst == id_) {
    net_.deliver_local(*this, p, at);
  } else {
    ++forwarded_;
    net_.forward(*this, p, h->dst);
  }
}

// --------------------------------------------------------------- Network --

Network::Network(Simulator& sim, std::uint64_t seed)
    : sim_{sim}, seed_{seed}, tracker_{sim} {}

Network::~Network() {
  // Flows and ingresses cancel timers on their partition kernels as they
  // die; `pdes_` owns those kernels and, as the last-declared member, would
  // be destroyed first — tear the topology down before the kernels.
  links_.clear();
  nodes_.clear();
}

void Network::enable_pdes(std::size_t partitions, std::size_t nodes_hint) {
  if (!nodes_.empty() || !links_.empty()) {
    // Channels and endpoints bind their kernel at construction, so the
    // partition map must exist before the first node or link.
    throw std::logic_error(
        "Network::enable_pdes must be called before any topology is added");
  }
  if (partitions == 0) {
    throw std::invalid_argument("Network::enable_pdes: zero partitions");
  }
  pdes_ = std::make_unique<PdesState>();
  pdes_->partitions = partitions;
  pdes_->nodes_hint = nodes_hint;
  pdes_->sims.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    pdes_->sims.push_back(std::make_unique<Simulator>());
  }
  pdes_->staged.resize(partitions);
  pdes_->journal.resize(partitions);
  pdes_->failures.resize(partitions);
  pdes_->errors.resize(partitions);
}

std::size_t Network::partition_of(NodeId id) const noexcept {
  if (!pdes_) return 0;
  const std::size_t p = pdes_->partitions;
  if (pdes_->nodes_hint > 0) {
    // Contiguous blocks: neighbours in id space (Walker planes) co-locate.
    const std::size_t part = static_cast<std::size_t>(id) * p / pdes_->nodes_hint;
    return std::min(part, p - 1);
  }
  return static_cast<std::size_t>(id) % p;
}

Simulator& Network::sim_for(NodeId id) noexcept {
  return pdes_ ? *pdes_->sims[partition_of(id)] : sim_;
}

void Network::at(Time when, std::function<void()> op, bool blocks_completion) {
  if (!op) throw std::invalid_argument("Network::at: empty operation");
  if (blocks_completion) ++pending_blocking_ops_;
  if (!pdes_) {
    sim_.schedule_at(when, [this, blocks_completion, op = std::move(op)] {
      if (blocks_completion) --pending_blocking_ops_;
      op();
    });
    return;
  }
  if (when < sim_.now()) {
    throw std::invalid_argument("Network::at: time is in the past");
  }
  pdes_->ops.push_back(PdesState::GlobalOp{when, pdes_->next_op_seq++,
                                           std::move(op), blocks_completion});
  std::push_heap(pdes_->ops.begin(), pdes_->ops.end(), PdesState::op_later);
}

link::ChannelIngress& Network::link_ingress(LinkId id, bool forward) {
  LinkState& ls = *links_.at(id);
  link::ChannelIngress* ing =
      forward ? ls.ingress_at_b.get() : ls.ingress_at_a.get();
  if (ing == nullptr) {
    throw std::logic_error("Network::link_ingress: PDES is not enabled");
  }
  return *ing;
}

NodeId Network::add_node(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, std::move(name)));
  routes_valid_ = false;
  return id;
}

LinkId Network::add_link(const LinkSpec& spec) {
  const auto id = static_cast<LinkId>(links_.size());
  auto ls = std::make_unique<LinkState>();
  ls->spec = spec;

  auto channel_cfg = [&](bool forward) {
    link::SimplexChannel::Config c;
    c.data_rate_bps = spec.data_rate_bps;
    c.propagation = spec.propagation
                        ? spec.propagation
                        : [d = spec.prop_delay](Time) { return d; };
    c.byte_level = spec.byte_level;
    c.byte_level_seed = seed_ ^ (0x1000u * (id + 1)) ^ (forward ? 1u : 2u);
    return c;
  };
  const std::string tag = "link" + std::to_string(id);
  // Each direction's transmitter lives in the sending node's kernel (serial
  // mode: both are `sim_`).
  ls->duplex = std::make_unique<link::FullDuplexLink>(
      sim_for(spec.a), sim_for(spec.b), channel_cfg(true),
      sim::make_error_model(spec.a_to_b_error, seed_, tag + ".ab"),
      channel_cfg(false),
      sim::make_error_model(spec.b_to_a_error, seed_, tag + ".ba"));
  if (spec.a_to_b_error.kind == sim::ErrorConfig::Kind::kFixedFrameProb) {
    ls->duplex->forward().set_control_error_model(
        std::make_unique<phy::FixedFrameErrorModel>(
            spec.a_to_b_error.p_control, RandomStream{seed_, tag + ".abc"}));
  }
  if (spec.b_to_a_error.kind == sim::ErrorConfig::Kind::kFixedFrameProb) {
    ls->duplex->reverse().set_control_error_model(
        std::make_unique<phy::FixedFrameErrorModel>(
            spec.b_to_a_error.p_control, RandomStream{seed_, tag + ".bac"}));
  }

  if (pdes_) {
    // Sweep priorities sit below the kernel default (0x8000), one distinct
    // value per channel, so same-instant sweep-vs-timer ordering is a fixed
    // property of the objects involved at every partition count.
    if (id >= 0x4000) {
      throw std::logic_error("PDES supports at most 16384 links");
    }
    ls->ingress_at_b = std::make_unique<link::ChannelIngress>(
        sim_for(spec.b), static_cast<Simulator::Priority>(2 * id));
    ls->ingress_at_a = std::make_unique<link::ChannelIngress>(
        sim_for(spec.a), static_cast<Simulator::Priority>(2 * id + 1));
    // Every channel hands its finished (frame, arrival, epoch) triples to
    // the receiver-side ingress: directly when both endpoints share a
    // partition, via the barrier staging buffer when they do not.  Using the
    // ingress path for local traffic too keeps the delivery machinery — and
    // hence every tie-break — identical at every partition count.
    auto route = [this](std::size_t src_part, std::size_t dst_part,
                        link::ChannelIngress* ing) {
      if (src_part == dst_part) {
        return link::SimplexChannel::Egress{
            [ing](Time arrival, std::uint64_t epoch, frame::Frame f) {
              ing->push(arrival, epoch, std::move(f));
            }};
      }
      return link::SimplexChannel::Egress{
          [this, src_part, ing](Time arrival, std::uint64_t epoch,
                                frame::Frame f) {
            pdes_->staged[src_part].push_back(
                PdesState::StagedFrame{ing, arrival, epoch, std::move(f)});
          }};
    };
    const std::size_t pa = partition_of(spec.a);
    const std::size_t pb = partition_of(spec.b);
    ls->duplex->forward().set_egress(route(pa, pb, ls->ingress_at_b.get()));
    ls->duplex->reverse().set_egress(route(pb, pa, ls->ingress_at_a.get()));
  }

  links_.push_back(std::move(ls));
  build_flows(*links_.back(), id);
  routes_valid_ = false;
  // New topology may give parked traffic a path (a contact opening).
  bool any_parked = false;
  for (const auto& n : nodes_) any_parked |= n->parked() > 0;
  if (any_parked) compute_routes();
  return id;
}

void Network::build_flows(LinkState& ls, LinkId id) {
  const LinkSpec& spec = ls.spec;
  // Flow a→b: data on the forward channel, acknowledgements on reverse.
  ls.ab = std::make_unique<Flow>(sim_for(spec.a), sim_for(spec.b), *this, id,
                                 spec.a, spec.b, ls.duplex->forward(),
                                 ls.duplex->reverse(), spec);
  // Flow b→a: data on the reverse channel, acknowledgements on forward.
  ls.ba = std::make_unique<Flow>(sim_for(spec.b), sim_for(spec.a), *this, id,
                                 spec.b, spec.a, ls.duplex->reverse(),
                                 ls.duplex->forward(), spec);

  // Arrivals at b (forward channel): a→b data plus b→a acknowledgements.
  ls.sink_at_b = std::make_unique<DemuxSink>(&ls.ab->receiver_sink(),
                                             &ls.ba->sender_sink());
  // Arrivals at a (reverse channel): b→a data plus a→b acknowledgements.
  ls.sink_at_a = std::make_unique<DemuxSink>(&ls.ba->receiver_sink(),
                                             &ls.ab->sender_sink());
  if (pdes_) {
    // Parallel mode delivers through the receiver-side ingresses; a rebuild
    // (link re-up) must re-point them at the fresh demux sinks or they would
    // keep feeding the dead protocol instances.
    ls.ingress_at_b->set_sink(ls.sink_at_b.get());
    ls.ingress_at_a->set_sink(ls.sink_at_a.get());
  } else {
    ls.duplex->forward().set_sink(ls.sink_at_b.get());
    ls.duplex->reverse().set_sink(ls.sink_at_a.get());
  }

  // Link failure is a *global* event (reroute, residue handoff across
  // nodes): parallel mode only notes it during the window and lets the
  // barrier process all of a window's failures in canonical order.
  auto arm_failure = [this](Flow* flow) {
    if (auto* tx = flow->lams_sender()) {
      tx->set_failure_callback([this, flow] {
        if (pdes_) {
          const std::size_t part = partition_of(flow->from());
          pdes_->failures[part].push_back(
              PdesState::Failure{pdes_->sims[part]->now(), flow});
        } else {
          on_flow_failed(*flow);
        }
      });
    }
  };
  arm_failure(ls.ab.get());
  arm_failure(ls.ba.get());

  // Direct writes outside compute_routes (a link added after the tables
  // were sized): grow to cover the neighbour id.
  auto set_flow = [this](NodeId at, NodeId neighbour, Flow* f) {
    auto& table = node(at).flow_to_;
    if (table.size() <= neighbour) table.resize(nodes_.size(), nullptr);
    table[neighbour] = f;
  };
  set_flow(spec.a, spec.b, ls.ab.get());
  set_flow(spec.b, spec.a, ls.ba.get());
}

Flow& Network::flow(LinkId link, NodeId from) {
  LinkState& ls = *links_.at(link);
  if (ls.ab->from() == from) return *ls.ab;
  return *ls.ba;
}

const PacketHeader* Network::header(frame::PacketId id) const {
  // Entry 0 is padding (the allocator starts at 1), never a real header.
  if (id == 0 || id >= headers_.size()) return nullptr;
  return &headers_[id];
}

void Network::record_header(frame::PacketId id, NodeId src, NodeId dst) {
  if (headers_.size() <= id) headers_.resize(id + 1);
  headers_[id] = PacketHeader{src, dst};
}

void Network::compute_routes() {
  // Directed usable edges: flow operational and its link up.
  struct Edge {
    NodeId from, to;
    Flow* flow;
  };
  std::vector<Edge> edges;
  for (const auto& ls : links_) {
    if (!ls->up) continue;
    if (!ls->ab->failed()) edges.push_back({ls->ab->from(), ls->ab->to(), ls->ab.get()});
    if (!ls->ba->failed()) edges.push_back({ls->ba->from(), ls->ba->to(), ls->ba.get()});
  }
  // Incoming-edge lists for reverse BFS from each destination.
  std::vector<std::vector<const Edge*>> incoming(nodes_.size());
  for (const Edge& e : edges) incoming[e.to].push_back(&e);

  for (auto& n : nodes_) {
    n->next_hop_.assign(nodes_.size(), Node::kNoRoute);
    n->flow_to_.assign(nodes_.size(), nullptr);
  }
  for (const Edge& e : edges) {
    node(e.from).flow_to_[e.to] = e.flow;
  }

  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
    std::vector<std::uint32_t> dist(nodes_.size(), kInf);
    std::deque<NodeId> queue;
    dist[dst] = 0;
    queue.push_back(dst);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const Edge* e : incoming[v]) {
        if (dist[e->from] != kInf) continue;
        dist[e->from] = dist[v] + 1;
        node(e->from).next_hop_[dst] = v;
        queue.push_back(e->from);
      }
    }
  }
  routes_valid_ = true;
  flush_parked();
}

void Network::flush_parked() {
  for (auto& n : nodes_) {
    if (n->parked_.empty()) continue;
    std::map<NodeId, std::deque<sim::Packet>> parked;
    parked.swap(n->parked_);
    n->parked_count_ = 0;
    for (auto& [dst, q] : parked) {
      for (const sim::Packet& p : q) forward(*n, p, dst);
    }
  }
}

void Network::ensure_routes() {
  if (!routes_valid_) compute_routes();
}

void Network::set_route(NodeId at, NodeId dst, NodeId next_hop) {
  ensure_routes();
  auto& table = node(at).next_hop_;
  if (table.size() <= dst) table.resize(nodes_.size(), Node::kNoRoute);
  table[dst] = next_hop;
}

frame::PacketId Network::send_packet(NodeId src, NodeId dst,
                                     std::uint32_t bytes) {
  sim::Packet p;
  p.id = ids_.next();
  p.bytes = bytes;
  p.created_at = sim_.now();
  record_header(p.id, src, dst);
  tracker_.note_submitted(p);
  if (src == dst) {
    deliver_local(node(src), p, sim_.now());
  } else {
    forward(node(src), p, dst);
  }
  return p.id;
}

std::uint64_t Network::send_message(NodeId src, NodeId dst,
                                    std::uint32_t segments,
                                    std::uint32_t bytes) {
  const std::uint64_t mid = ++next_message_;
  for (std::uint32_t i = 0; i < segments; ++i) {
    sim::Packet p;
    p.id = ids_.next();
    p.bytes = bytes;
    p.created_at = sim_.now();
    p.message_id = mid;
    p.msg_index = i;
    p.msg_count = segments;
    record_header(p.id, src, dst);
    message_registry_.record(p);
    tracker_.note_submitted(p);
    forward(node(src), p, dst);
  }
  return mid;
}

void Network::forward(Node& at, const sim::Packet& p, NodeId dst) {
  ensure_routes();
  Flow* flow = nullptr;
  if (dst < at.next_hop_.size()) {
    const NodeId hop = at.next_hop_[dst];
    if (hop != Node::kNoRoute && hop < at.flow_to_.size()) {
      Flow* candidate = at.flow_to_[hop];
      if (candidate != nullptr && !candidate->failed()) flow = candidate;
    }
  }
  if (flow == nullptr) {
    // Store and forward: the node parks the packet until the topology
    // offers a route again (a future contact, a restored link).
    at.parked_[dst].push_back(p);
    ++at.parked_count_;
    return;
  }
  flow->dlc().submit(p);
}

void Network::deliver_local(Node& at, const sim::Packet& p, Time at_time) {
  if (pdes_) {
    // The resequencer map and tracker are shared across partitions: journal
    // the delivery (timestamped) and let the barrier replay every
    // partition's journal in one canonical (time, node) order.
    pdes_->journal[partition_of(at.id())].push_back(
        PdesState::Delivery{at_time, at.id(), p});
    return;
  }
  deliver_local_now(at.id(), p, at_time);
}

void Network::deliver_local_now(NodeId nid, const sim::Packet& p,
                                Time at_time) {
  auto it = resequencers_.find(nid);
  if (it == resequencers_.end()) {
    auto reseq = std::make_unique<workload::Resequencer>(
        message_registry_,
        [this, dst = nid](std::uint64_t mid, Time when) {
          if (on_message_) on_message_(dst, mid, when);
        },
        &tracker_);
    it = resequencers_.emplace(nid, std::move(reseq)).first;
  }
  it->second->on_packet(p, at_time);
}

void Network::on_flow_failed(Flow& flow) {
  flow.failed_ = true;
  routes_valid_ = false;
  auto residue = flow.lams_sender() != nullptr
                     ? flow.lams_sender()->take_unresolved()
                     : std::vector<sim::Packet>{};
  Node& origin = node(flow.from());
  for (const sim::Packet& p : residue) {
    const PacketHeader* h = header(p.id);
    if (h == nullptr) continue;
    if (h->dst == origin.id()) {
      deliver_local(origin, p, sim_.now());
    } else {
      forward(origin, p, h->dst);
    }
  }
}

void Network::set_link_up(LinkId id, bool up) {
  LinkState& ls = *links_.at(id);
  if (ls.up == up) return;
  ls.up = up;
  ls.duplex->set_up(up);
  if (!up && pdes_) {
    // The ingresses mirror the channels' down-epochs; bumping both here (at
    // a barrier, kernels parked) strands every in-flight frame on its stale
    // epoch — the same fate the serial channel gives photons in flight.
    ls.ingress_at_b->bump_epoch();
    ls.ingress_at_a->bump_epoch();
  }
  routes_valid_ = false;
  if (up) {
    // A re-acquired laser link starts a fresh protocol instance on both
    // flows (the old ones are dead once failure was declared).
    build_flows(ls, id);
  }
  // Reroute immediately: parked traffic may now have a path (or traffic
  // headed into the dead link needs to divert).
  compute_routes();
}

bool Network::run_to_completion(Time horizon, Time check_every) {
  while (sim_.now() < horizon) {
    const Time next = std::min(horizon, sim_.now() + check_every);
    sim_.run_until(next);
    if (pending_blocking_ops_ == 0 && tracker_.submitted() > 0 &&
        tracker_.all_delivered()) {
      return true;
    }
  }
  return tracker_.submitted() > 0 && tracker_.all_delivered();
}

Time Network::pdes_lookahead() const {
  // The lookahead is computed over *all* links, not just the cross-partition
  // ones, so the window sequence — and with it every barrier instant — is
  // identical at every partition count.  That invariance is load-bearing:
  // global operations and journal replays fire at window ends, so the
  // window grid must be a function of the topology alone.
  Time lookahead = Time::max();
  for (const auto& ls : links_) {
    const LinkSpec& s = ls->spec;
    Time bound = s.min_propagation;
    if (bound.ps() == 0) {
      if (s.propagation) {
        throw std::logic_error(
            "PDES: link " + std::to_string(ls->ab->link()) +
            " has a custom propagation function but no min_propagation "
            "lower bound");
      }
      bound = s.prop_delay;
    }
    if (bound.ps() <= 0) {
      throw std::logic_error(
          "PDES: link propagation lower bound must be positive (zero "
          "lookahead cannot make window progress)");
    }
    lookahead = std::min(lookahead, bound);
  }
  // A linkless network has no frame exchange at all; any positive window
  // pitch is correct.
  return lookahead == Time::max() ? Time::milliseconds(1) : lookahead;
}

void Network::drain_delivery_journal() {
  std::vector<PdesState::Delivery> all;
  for (auto& part : pdes_->journal) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
    part.clear();
  }
  if (all.empty()) return;
  std::stable_sort(all.begin(), all.end(),
                   [](const PdesState::Delivery& x,
                      const PdesState::Delivery& y) {
                     if (x.at != y.at) return x.at < y.at;
                     return x.node < y.node;
                   });
  for (const auto& d : all) deliver_local_now(d.node, d.p, d.at);
}

void Network::pdes_barrier(Time window_end) {
  // Workers are parked; everything below runs on the coordinator with
  // exclusive access to all partition state.
  //
  // 1. Advance the coordinator clock (it carries no events of its own in
  //    parallel mode, but `now()` must be right for ops and injections).
  sim_.run_before(window_end);
  // 2. Hand staged cross-partition frames to their ingresses, in source-
  //    partition order.  Equal-arrival frames of one channel sit in one
  //    staging vector in send order, so this order is canonical.
  for (auto& vec : pdes_->staged) {
    for (auto& s : vec) s.ingress->push(s.arrival, s.epoch, std::move(s.f));
    vec.clear();
  }
  // 3. Replay the window's end-to-end deliveries into the shared
  //    resequencers/tracker in (time, node) order.
  drain_delivery_journal();
  // 4. Process deferred link-failure declarations in (time, link, from)
  //    order — the reroute + residue handoff is a global mutation.
  {
    std::vector<PdesState::Failure> fails;
    for (auto& part : pdes_->failures) {
      fails.insert(fails.end(), part.begin(), part.end());
      part.clear();
    }
    std::stable_sort(fails.begin(), fails.end(),
                     [](const PdesState::Failure& x,
                        const PdesState::Failure& y) {
                       if (x.at != y.at) return x.at < y.at;
                       if (x.flow->link() != y.flow->link()) {
                         return x.flow->link() < y.flow->link();
                       }
                       return x.flow->from() < y.flow->from();
                     });
    for (const auto& f : fails) on_flow_failed(*f.flow);
  }
  // 5. Run every global operation due exactly now, in registration order
  //    among equals.  `run_before`'s exclusive bound means these fire
  //    *before* any same-instant kernel event — one canonical interleaving.
  while (!pdes_->ops.empty() && pdes_->ops.front().at == window_end) {
    std::pop_heap(pdes_->ops.begin(), pdes_->ops.end(), PdesState::op_later);
    PdesState::GlobalOp op = std::move(pdes_->ops.back());
    pdes_->ops.pop_back();
    if (op.blocks_completion) --pending_blocking_ops_;
    op.fn();
  }
  // 6. Failures/ops may have invalidated routing; windows must never see a
  //    stale table (ensure_routes inside a window would be a global
  //    mutation).
  if (!routes_valid_) compute_routes();
  // 7. Failures and ops can themselves deliver (src==dst injection, residue
  //    arriving home); replay those too so completion checks see them.
  drain_delivery_journal();
}

bool Network::run_parallel_to_completion(Time horizon, Time check_every) {
  if (!pdes_) return run_to_completion(horizon, check_every);
  (void)check_every;  // completion can only change at barriers
  ensure_routes();
  const Time lookahead = pdes_lookahead();
  while (sim_.now() < horizon) {
    // Pending traffic-injecting ops mean more packets are coming, so an
    // all-delivered lull between waves is not completion.
    if (pending_blocking_ops_ == 0 && tracker_.submitted() > 0 &&
        tracker_.all_delivered()) {
      return true;
    }
    // Conservative window bound: no event executing at or after T_min can
    // cause a cross-partition arrival before T_min + lookahead, so every
    // kernel may safely run through [now, W_end) in isolation.  Global
    // operations cap the window so they fire at exactly their instant.
    Time t_min = Time::max();
    for (const auto& s : pdes_->sims) {
      t_min = std::min(t_min, s->next_event_time());
    }
    Time window_end = horizon;
    if (t_min < horizon) {
      window_end = std::min(window_end, t_min + lookahead);
    }
    if (!pdes_->ops.empty()) {
      window_end = std::min(window_end, pdes_->ops.front().at);
    }
    pdes_->run_window(window_end);
    pdes_barrier(window_end);
  }
  return tracker_.submitted() > 0 && tracker_.all_delivered();
}

NetworkReport Network::report() const {
  NetworkReport r;
  r.packets_sent = tracker_.submitted();
  r.packets_delivered = tracker_.unique_delivered();
  r.duplicate_deliveries = tracker_.duplicates();
  r.packets_lost = r.packets_sent - r.packets_delivered;
  for (const auto& n : nodes_) {
    r.packets_forwarded += n->forwarded();
    r.packets_parked += n->parked();
  }
  for (const auto& [id, reseq] : resequencers_) {
    r.messages_completed += reseq->messages_completed();
  }
  r.mean_delay_s = tracker_.delay().mean();
  r.max_delay_s = tracker_.delay().max();
  return r;
}

}  // namespace lamsdlc::net

#pragma once
/// \file network.hpp
/// \brief Multi-hop store-and-forward constellation network.
///
/// The paper's target system is not one link but a constellation of
/// store-and-forward satellites (Section 1): each node forwards incoming
/// I-frames "to the next node" immediately, which is exactly what relaxing
/// the in-sequence constraint buys (Section 2.3) — intermediate nodes hold
/// nothing for resequencing, and the *destination* carries the reordering
/// and de-duplication responsibility.
///
/// `Network` builds that system out of the single-link pieces:
///  - every link is a full-duplex pair of channels carrying two independent
///    DLC flows (data one way, its checkpoints riding the opposite
///    channel alongside the reverse flow's data);
///  - every node routes by a static next-hop table (shortest hop count by
///    default, overridable) and re-submits transit packets into the DLC
///    sender of the outgoing link;
///  - end-to-end delivery is tracked per packet and per message, with
///    exactly-once semantics at the destination;
///  - a LAMS sender that declares link failure hands its unresolved residue
///    back to the node, which reroutes it over the surviving topology — the
///    "inform the network layer" path of Section 3.2, and the zero-loss /
///    zero-duplication story of the TR's mentioned successor version.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/hdlc/gbn.hpp"
#include "lamsdlc/hdlc/sr.hpp"
#include "lamsdlc/lams/receiver.hpp"
#include "lamsdlc/lams/sender.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/sim/error_config.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/message.hpp"
#include "lamsdlc/workload/tracker.hpp"

namespace lamsdlc::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

/// Network-layer header contents (kept off the DLC wire, like a real packet
/// header living inside the payload).
struct PacketHeader {
  NodeId src = 0;
  NodeId dst = 0;
};

/// One link between two nodes, as specified by the builder.
struct LinkSpec {
  NodeId a = 0;
  NodeId b = 0;
  double data_rate_bps = 100e6;
  Time prop_delay = Time::milliseconds(5);
  /// Optional time-varying propagation (orbit-driven); overrides prop_delay.
  std::function<Time(Time)> propagation;
  /// Guaranteed lower bound on the propagation delay over the whole run —
  /// the parallel driver's lookahead for this link.  Zero means "derive":
  /// fixed-delay links use `prop_delay`; links with a custom `propagation`
  /// function must set this explicitly (the contact builder does, via
  /// `min_propagation_bound`) or `enable_pdes` runs refuse to start.
  Time min_propagation{};
  sim::ErrorConfig a_to_b_error;  ///< Error process on the a→b channel.
  sim::ErrorConfig b_to_a_error;  ///< Error process on the b→a channel.
  /// DLC run on both flows of this link.  LAMS-DLC links additionally get
  /// failure detection + network-layer failover; the HDLC baselines exist
  /// for multi-hop comparisons (e.g. relay resequencing buffers).
  sim::Protocol protocol = sim::Protocol::kLams;
  lams::LamsConfig lams;  ///< Parameters when protocol == kLams.
  hdlc::HdlcConfig hdlc;  ///< Parameters when protocol is an HDLC variant.
  bool byte_level = false;
  /// Optional event-bus factory for the link's protocol endpoints
  /// (LAMS flows only).  Called once per endpoint while the link is built;
  /// `sender_side` is true for the flow's sender.  Returned buses must
  /// outlive the network; return null for "don't observe".  Under PDES each
  /// endpoint's bus is written from exactly one partition (the sender from
  /// `partition_of(from)`, the receiver from `partition_of(to)`), so
  /// per-endpoint buffers need no locking (sim::run_network relies on this).
  std::function<obs::EventBus*(NodeId from, NodeId to, bool sender_side)>
      bus_for;
};

/// Aggregate outcome of a network run.
struct NetworkReport {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;   ///< Unique, at their destination.
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t packets_lost = 0;        ///< Sent but never delivered.
  std::uint64_t packets_forwarded = 0;   ///< Transit submissions at relays.
  std::uint64_t packets_parked = 0;      ///< Currently waiting for a route
                                         ///< (store-and-forward holding).
  std::uint64_t messages_completed = 0;
  double mean_delay_s = 0;
  double max_delay_s = 0;
};

class Network;

/// One direction of one link: a complete DLC flow (LAMS-DLC by default,
/// SR-HDLC / GBN-HDLC for baseline comparisons).
class Flow {
 public:
  Flow(Simulator& sim, Network& net, LinkId link, NodeId from, NodeId to,
       link::SimplexChannel& data, link::SimplexChannel& control,
       const LinkSpec& spec)
      : Flow{sim, sim, net, link, from, to, data, control, spec} {}

  /// Two-kernel form for the parallel driver: the sender lives in \p
  /// tx_sim's partition (with the data channel's serializer), the receiver
  /// in \p rx_sim's (with the control channel's).  When the kernels differ
  /// the receiver writes into a private stats block (`rx_stats_`) so the
  /// two partitions never race on one `DlcStats`; with one kernel both
  /// endpoints share `stats_` exactly as before.
  Flow(Simulator& tx_sim, Simulator& rx_sim, Network& net, LinkId link,
       NodeId from, NodeId to, link::SimplexChannel& data,
       link::SimplexChannel& control, const LinkSpec& spec);

  /// Generic submit/buffer interface (any protocol).
  [[nodiscard]] sim::DlcSender& dlc() noexcept { return *dlc_sender_; }
  /// The frame sink consuming this flow's incoming I-frames.
  [[nodiscard]] link::FrameSink& receiver_sink() noexcept { return *receiver_sink_; }
  /// The frame sink consuming this flow's returning acknowledgements.
  [[nodiscard]] link::FrameSink& sender_sink() noexcept { return *sender_sink_; }

  /// LAMS-specific access (nullptr on HDLC flows).
  [[nodiscard]] lams::LamsSender* lams_sender() noexcept { return lams_tx_.get(); }
  [[nodiscard]] lams::LamsReceiver* lams_receiver() noexcept { return lams_rx_.get(); }
  /// Convenience kept for LAMS-heavy callers; asserts a LAMS flow.
  [[nodiscard]] lams::LamsSender& sender() noexcept { return *lams_tx_; }

  [[nodiscard]] sim::DlcStats& stats() noexcept { return stats_; }
  [[nodiscard]] NodeId from() const noexcept { return from_; }
  [[nodiscard]] NodeId to() const noexcept { return to_; }
  [[nodiscard]] LinkId link() const noexcept { return link_; }

  /// True once this flow's sender declared the link failed and its residue
  /// was rerouted; the flow no longer participates in routing.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  friend class Network;
  LinkId link_;
  NodeId from_, to_;
  bool failed_ = false;
  sim::DlcStats stats_;
  sim::DlcStats rx_stats_;  ///< Receiver-side stats in two-kernel mode.
  std::unique_ptr<lams::LamsSender> lams_tx_;
  std::unique_ptr<lams::LamsReceiver> lams_rx_;
  std::unique_ptr<hdlc::SrSender> sr_tx_;
  std::unique_ptr<hdlc::SrReceiver> sr_rx_;
  std::unique_ptr<hdlc::GbnSender> gbn_tx_;
  std::unique_ptr<hdlc::GbnReceiver> gbn_rx_;
  sim::DlcSender* dlc_sender_ = nullptr;
  link::FrameSink* receiver_sink_ = nullptr;
  link::FrameSink* sender_sink_ = nullptr;
};

/// A store-and-forward satellite node.
class Node final : public sim::PacketListener {
 public:
  Node(Network& net, NodeId id, std::string name)
      : net_{net}, id_{id}, name_{std::move(name)} {}

  /// Deliveries from every incoming flow land here; transit traffic is
  /// forwarded, local traffic is delivered upward.
  void on_packet(const sim::Packet& p, Time at) override;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  /// Packets currently parked waiting for a route (store-and-forward
  /// across contact gaps).
  [[nodiscard]] std::size_t parked() const noexcept { return parked_count_; }

 private:
  friend class Network;

  /// No next_hop_ entry for a destination.
  static constexpr NodeId kNoRoute = ~NodeId{0};

  Network& net_;
  NodeId id_;
  std::string name_;
  /// Routing tables as flat arrays indexed by NodeId (node ids are dense
  /// 0..N-1): the per-hop forwarding decision is two array loads instead of
  /// two red-black-tree walks, and steady-state transit allocates nothing.
  std::vector<NodeId> next_hop_;  ///< dst -> neighbour (kNoRoute if none).
  std::vector<Flow*> flow_to_;    ///< neighbour -> outgoing flow (nullptr).
  std::map<NodeId, std::deque<sim::Packet>> parked_;  ///< dst -> waiting.
  std::size_t parked_count_ = 0;
  std::uint64_t forwarded_ = 0;
};

/// The constellation network builder and runtime.
class Network {
 public:
  explicit Network(Simulator& sim, std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// \name Parallel execution (conservative PDES)
  /// @{
  /// Switch this network to partitioned execution *before any topology is
  /// added*: nodes are assigned to \p partitions logical processes, each
  /// with its own event kernel, and `run_parallel_to_completion` advances
  /// them in lockstep windows bounded by the minimum link propagation delay
  /// (the lookahead).  Output is bit-identical at every partition count —
  /// `partitions == 1` *is* the serial reference, same code path.
  ///
  /// \p nodes_hint, when nonzero, is the expected final node count; nodes
  /// are then assigned in contiguous blocks (keeping Walker planes
  /// together), otherwise round-robin by id.
  void enable_pdes(std::size_t partitions, std::size_t nodes_hint = 0);
  [[nodiscard]] bool pdes_enabled() const noexcept { return pdes_ != nullptr; }
  /// Partition and kernel owning \p id (serial mode: partition 0, `simulator()`).
  [[nodiscard]] std::size_t partition_of(NodeId id) const noexcept;
  [[nodiscard]] Simulator& sim_for(NodeId id) noexcept;

  /// Schedule a *global* operation — one that touches cross-partition state
  /// (link up/down, traffic injection, route edits).  Serial mode runs it as
  /// an ordinary kernel event; parallel mode runs it at a window barrier at
  /// exactly \p when, before any same-instant kernel event, in registration
  /// order among equal times — one canonical order at every partition count.
  ///
  /// \p blocks_completion marks ops that may inject *new traffic*: the
  /// `run_to_completion` drivers refuse to declare the network complete
  /// while any such op is still pending (otherwise an all-delivered lull
  /// between traffic waves reads as completion).  Pass `false` for purely
  /// topological ops (contact up/down) so a run can finish as soon as its
  /// traffic drains instead of dwelling until the last scheduled contact.
  void at(Time when, std::function<void()> op, bool blocks_completion = true);

  /// Parallel counterpart of `run_to_completion`: windowed lockstep advance
  /// until every injected packet is delivered or \p horizon.  Completion can
  /// only change at a window barrier, so \p check_every is accepted for
  /// signature parity but the natural barrier cadence is used.  Falls back
  /// to `run_to_completion` when PDES was never enabled.
  bool run_parallel_to_completion(Time horizon,
                                  Time check_every = Time::milliseconds(1));

  /// Receiver-side ingress of one channel (parallel mode only; for tests
  /// and drivers attaching event buses).  \p forward selects the a→b
  /// channel's ingress (at b).
  [[nodiscard]] link::ChannelIngress& link_ingress(LinkId id, bool forward);
  /// @}

  /// \name Topology
  /// @{
  NodeId add_node(std::string name);
  LinkId add_link(const LinkSpec& spec);
  /// Fill every node's next-hop table by BFS hop count over live links.
  /// Called automatically by traffic entry points if never run; rerun after
  /// topology changes (e.g. a link failure) to reroute around them.
  void compute_routes();
  /// Manual route override (after compute_routes()).
  void set_route(NodeId at, NodeId dst, NodeId next_hop);
  /// @}

  /// \name Traffic
  /// @{
  /// Inject one packet at \p src destined for \p dst.  Returns its id.
  frame::PacketId send_packet(NodeId src, NodeId dst, std::uint32_t bytes);
  /// Inject a segmented message; completion is reported via the message
  /// callback when the destination has every segment (exactly once).
  std::uint64_t send_message(NodeId src, NodeId dst, std::uint32_t segments,
                             std::uint32_t bytes);
  using MessageCallback =
      std::function<void(NodeId dst, std::uint64_t message_id, Time at)>;
  void set_message_callback(MessageCallback cb) { on_message_ = std::move(cb); }
  /// @}

  /// \name Failure injection & failover
  /// @{
  /// Kill or restore both channels of a link.  Killing triggers the LAMS
  /// failure detectors on both flows; their unresolved residue is rerouted
  /// over the remaining topology (if any route exists).
  void set_link_up(LinkId id, bool up);
  /// @}

  /// Advance until every injected packet is delivered, or \p horizon.
  bool run_to_completion(Time horizon,
                         Time check_every = Time::milliseconds(1));

  [[nodiscard]] NetworkReport report() const;

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] Flow& flow(LinkId link, NodeId from);
  /// Raw channel pair of a link (to attach fault stages, event buses or
  /// captures in tests and chaos harnesses).
  [[nodiscard]] link::FullDuplexLink& link_channels(LinkId id) {
    return *links_.at(id)->duplex;
  }
  [[nodiscard]] workload::DeliveryTracker& tracker() noexcept { return tracker_; }
  [[nodiscard]] const PacketHeader* header(frame::PacketId id) const;

 private:
  friend class Node;
  friend class Flow;

  struct LinkState {
    LinkSpec spec;
    std::unique_ptr<link::FullDuplexLink> duplex;
    std::unique_ptr<Flow> ab;  ///< Flow a→b (data on forward channel).
    std::unique_ptr<Flow> ba;  ///< Flow b→a (data on reverse channel).
    std::unique_ptr<link::FrameSink> sink_at_a;  ///< Demux on the b→a channel.
    std::unique_ptr<link::FrameSink> sink_at_b;  ///< Demux on the a→b channel.
    /// Parallel mode: receiver-side transit queues (null in serial mode).
    std::unique_ptr<link::ChannelIngress> ingress_at_b;  ///< Forward channel.
    std::unique_ptr<link::ChannelIngress> ingress_at_a;  ///< Reverse channel.
    bool up = true;
  };

  void build_flows(LinkState& ls, LinkId id);

  void record_header(frame::PacketId id, NodeId src, NodeId dst);
  void forward(Node& at, const sim::Packet& p, NodeId dst);
  void deliver_local(Node& at, const sim::Packet& p, Time at_time);
  /// The resequencer/tracker delivery proper; parallel mode journals
  /// deliveries during windows and replays them here at barriers.
  void deliver_local_now(NodeId node, const sim::Packet& p, Time at_time);
  void on_flow_failed(Flow& flow);
  void ensure_routes();
  /// Re-attempt every parked packet after a topology change.
  void flush_parked();

  // Parallel engine internals (network.cpp).
  struct PdesState;
  [[nodiscard]] Time pdes_lookahead() const;
  void pdes_barrier(Time window_end);
  void drain_delivery_journal();

  Simulator& sim_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<LinkState>> links_;
  workload::DeliveryTracker tracker_;
  workload::PacketIdAllocator ids_;
  /// Per-packet network headers, indexed directly by PacketId: the allocator
  /// hands out dense ids 1, 2, 3, ..., so the table is a flat array (entry 0
  /// unused) and the per-hop header lookup in Node::on_packet is one bounds
  /// check + one load.  Ids outside the table (protocol-level test rigs
  /// driving flows directly) resolve to nullptr exactly as before.
  std::vector<PacketHeader> headers_;
  workload::MessageRegistry message_registry_;
  std::map<NodeId, std::unique_ptr<workload::Resequencer>> resequencers_;
  MessageCallback on_message_;
  std::uint64_t next_message_{0};
  bool routes_valid_{false};
  /// `at(..., blocks_completion=true)` ops not yet run: completion gates on
  /// this reaching zero so queued traffic waves are never abandoned.
  std::size_t pending_blocking_ops_{0};
  std::unique_ptr<PdesState> pdes_;  ///< Null when running serially.
};

}  // namespace lamsdlc::net

// Network topology: nodes wired by fixed-latency links.
//
// The case study (Figure 6) needs a packet source, a P4 switch in the
// forwarding path, destination subnets, and a controller reachable over a
// non-zero-latency control channel.  Network provides the first three;
// channel.hpp models the controller path.
//
// The per-packet path allocates nothing: each direction of a link keeps
// the packets on its wire in a ring it reuses and schedules their arrivals
// on a simulator lane with the allocation-free event form, and a
// P4SwitchNode reuses one SwitchOutput for every packet it processes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "netsim/simulator.hpp"
#include "p4sim/packet.hpp"
#include "p4sim/switch.hpp"

namespace netsim {

using NodeId = std::uint32_t;
using p4sim::Packet;
using p4sim::PortId;

class Network;

/// A device attached to the network.  Subclasses implement on_packet.
class Node {
 public:
  virtual ~Node() = default;

  /// Called when a packet arrives on `port` (sim time = arrival time).
  virtual void on_packet(PortId port, Packet pkt) = 0;

 protected:
  /// Transmit out of `port`; the packet arrives at the peer after the link
  /// delay.  Packets sent into unwired ports are dropped (counted).
  void send(PortId port, Packet pkt);

  [[nodiscard]] Simulator& sim();
  [[nodiscard]] TimeNs now();

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId id_ = 0;
};

class Network {
 public:
  explicit Network(Simulator& sim) : sim_(sim) {}

  NodeId add_node(std::unique_ptr<Node> node);

  template <typename T>
  [[nodiscard]] T& node(NodeId id) {
    return dynamic_cast<T&>(*nodes_.at(id));
  }

  /// Wire (a, pa) <-> (b, pb) full duplex with one-way `delay`.
  /// `bandwidth_bps` models serialization (0 = infinite capacity) and
  /// `queue_limit` bounds the per-direction transmit queue in packets:
  /// packets arriving at a full queue are DROPPED and counted — the
  /// congestion the paper's Section 5 wants the data plane to react to
  /// before it happens.
  void link(NodeId a, PortId pa, NodeId b, PortId pb, TimeNs delay,
            std::uint64_t bandwidth_bps = 0, std::size_t queue_limit = 0);

  /// Packets dropped at full transmit queues, network-wide.
  [[nodiscard]] std::uint64_t packets_dropped_queue() const noexcept {
    return dropped_queue_;
  }

  /// Deliver `pkt` into (node, port) at the current sim time (external
  /// traffic injection, used by generators).
  void inject(NodeId node, PortId port, Packet pkt);

  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t packets_dropped_unwired() const noexcept {
    return dropped_unwired_;
  }

 private:
  friend class Node;
  /// One direction of a link, bound for (node, port).  Its packets leave
  /// at now() or at busy_until, neither of which decreases, and all take
  /// `delay`, so they arrive in send order: the wire is one simulator lane,
  /// and its arrival events pop `in_flight` from the front.
  struct Wire {
    Network* net = nullptr;
    NodeId node = 0;
    PortId port = 0;
    TimeNs delay = 0;
    std::uint64_t bandwidth_bps = 0;  ///< 0 = infinite
    std::size_t queue_limit = 0;      ///< packets; 0 = unbounded
    TimeNs busy_until = 0;            ///< per-direction transmit state
    Simulator::LaneId lane = 0;
    Ring<Packet> in_flight;  ///< packets on the wire, in send order
  };

  void transmit(NodeId from, PortId port, Packet pkt);
  /// The arrival event of the front packet on `wire` (a Wire*).
  static void arrive(void* wire, std::uint64_t);

  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::deque<Wire> wires_;  ///< stable addresses: arrival events hold them
  std::vector<std::vector<Wire*>> ports_;  ///< [node][port]; null = unwired
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_unwired_ = 0;
  std::uint64_t dropped_queue_ = 0;
};

/// Wraps a P4Switch as a network node.  Digests are handed to the digest
/// sink immediately (the control channel adds its own latency).
///
/// The node processes every packet into one reused SwitchOutput, so the
/// digest sink must not synchronously deliver a packet into this same node
/// (e.g. via Network::inject): the nested on_packet would overwrite the
/// output the outer call is still walking.  Sinks that go through a
/// ControlChannel, or otherwise schedule, are fine.
class P4SwitchNode : public Node {
 public:
  /// `sw` must outlive the node (typically owned by a stat4p4 app object).
  explicit P4SwitchNode(p4sim::P4Switch& sw) : sw_(&sw) {}

  void on_packet(PortId port, Packet pkt) override;

  void set_digest_sink(std::function<void(const p4sim::Digest&)> sink) {
    digest_sink_ = std::move(sink);
  }

  [[nodiscard]] p4sim::P4Switch& sw() noexcept { return *sw_; }

 private:
  p4sim::P4Switch* sw_;
  std::function<void(const p4sim::Digest&)> digest_sink_;
  p4sim::SwitchOutput out_;  ///< reused across packets (see class comment)
};

/// A host that hands every received packet to a callback (and can send).
class HostNode : public Node {
 public:
  using Handler = std::function<void(PortId, const Packet&)>;

  void set_handler(Handler h) { handler_ = std::move(h); }
  void on_packet(PortId port, Packet pkt) override;

  /// Expose Node::send for traffic generators driving this host.
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }

  [[nodiscard]] std::uint64_t packets_received() const noexcept {
    return received_;
  }

 private:
  Handler handler_;
  std::uint64_t received_ = 0;
};

}  // namespace netsim

#include "netsim/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace netsim {

void Node::send(PortId port, Packet pkt) {
  if (net_ == nullptr) {
    throw std::logic_error("netsim: node not attached to a network");
  }
  net_->transmit(id_, port, std::move(pkt));
}

Simulator& Node::sim() {
  if (net_ == nullptr) {
    throw std::logic_error("netsim: node not attached to a network");
  }
  return net_->sim();
}

TimeNs Node::now() { return sim().now(); }

NodeId Network::add_node(std::unique_ptr<Node> node) {
  node->net_ = this;
  node->id_ = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back()->id_;
}

void Network::link(NodeId a, PortId pa, NodeId b, PortId pb, TimeNs delay,
                   std::uint64_t bandwidth_bps, std::size_t queue_limit) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("netsim: link endpoint node does not exist");
  }
  if (delay < 0) {
    throw std::invalid_argument("netsim: negative link delay");
  }
  const auto ka = std::make_pair(a, pa);
  const auto kb = std::make_pair(b, pb);
  if (wires_.count(ka) != 0 || wires_.count(kb) != 0) {
    throw std::invalid_argument("netsim: port already wired");
  }
  wires_[ka] = Endpoint{b, pb, delay, bandwidth_bps, queue_limit, 0};
  wires_[kb] = Endpoint{a, pa, delay, bandwidth_bps, queue_limit, 0};
}

void Network::inject(NodeId node, PortId port, Packet pkt) {
  if (node >= nodes_.size()) {
    throw std::out_of_range("netsim: inject target does not exist");
  }
  pkt.ingress_port = port;
  pkt.ingress_ts = sim_.now();
  ++delivered_;
  nodes_[node]->on_packet(port, std::move(pkt));
}

void Network::transmit(NodeId from, PortId port, Packet pkt) {
  const auto it = wires_.find({from, port});
  if (it == wires_.end()) {
    ++dropped_unwired_;
    return;
  }
  Endpoint& ep = it->second;

  TimeNs depart = sim_.now();
  if (ep.bandwidth_bps > 0) {
    // Serialization time for this frame at the link rate.
    const auto bits = static_cast<std::uint64_t>(pkt.size()) * 8;
    const auto serialization = static_cast<TimeNs>(
        (bits * static_cast<std::uint64_t>(stat4::kSecond)) /
        ep.bandwidth_bps);
    const TimeNs start = std::max(sim_.now(), ep.busy_until);
    if (ep.queue_limit > 0 && serialization > 0) {
      // Occupancy = how many serialization slots are already committed
      // ahead of this packet.
      const auto backlog = static_cast<std::size_t>(
          (start - sim_.now()) / serialization);
      if (backlog >= ep.queue_limit) {
        ++dropped_queue_;  // tail drop: the congestion signal
        return;
      }
    }
    ep.busy_until = start + serialization;
    depart = ep.busy_until;
  }

  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = InFlight{ep.node, ep.port, std::move(pkt)};
  // 16 trivially copyable bytes: stored inline by std::function.
  sim_.schedule_at(depart + ep.delay, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  // Take the packet and free the slot BEFORE on_packet: the receiver may
  // transmit, which can grow (reallocate) the pool.
  InFlight& f = in_flight_[slot];
  const NodeId node = f.node;
  const PortId port = f.port;
  Packet pkt = std::move(f.pkt);
  free_slots_.push_back(slot);
  pkt.ingress_port = port;
  pkt.ingress_ts = sim_.now();
  ++delivered_;
  nodes_[node]->on_packet(port, std::move(pkt));
}

void P4SwitchNode::on_packet(PortId port, Packet pkt) {
  pkt.ingress_port = port;
  pkt.ingress_ts = now();
  sw_->process_into(std::move(pkt), out_);
  if (digest_sink_) {
    for (const auto& d : out_.digests) digest_sink_(d);
  }
  for (auto& [out_port, out_pkt] : out_.packets) {
    send(out_port, std::move(out_pkt));
  }
}

void HostNode::on_packet(PortId port, Packet pkt) {
  ++received_;
  if (handler_) handler_(port, pkt);
}

}  // namespace netsim

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
  ports_.emplace_back();
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
  const auto wired = [this](NodeId n, PortId p) {
    return p < ports_[n].size() && ports_[n][p] != nullptr;
  };
  if (wired(a, pa) || wired(b, pb)) {
    throw std::invalid_argument("netsim: port already wired");
  }
  const auto wire = [&](NodeId from, PortId out, NodeId to, PortId in) {
    wires_.push_back(Wire{this, to, in, delay, bandwidth_bps, queue_limit, 0,
                          sim_.add_lane(), {}});
    if (ports_[from].size() <= out) ports_[from].resize(out + 1u);
    ports_[from][out] = &wires_.back();
  };
  wire(a, pa, b, pb);
  wire(b, pb, a, pa);
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
  const std::vector<Wire*>& out = ports_[from];
  Wire* const w = port < out.size() ? out[port] : nullptr;
  if (w == nullptr) {
    ++dropped_unwired_;
    return;
  }

  TimeNs depart = sim_.now();
  if (w->bandwidth_bps > 0) {
    // Serialization time for this frame at the link rate.
    const auto bits = static_cast<std::uint64_t>(pkt.size()) * 8;
    const auto serialization = static_cast<TimeNs>(
        (bits * static_cast<std::uint64_t>(stat4::kSecond)) /
        w->bandwidth_bps);
    const TimeNs start = std::max(sim_.now(), w->busy_until);
    if (w->queue_limit > 0 && serialization > 0) {
      // Occupancy = how many serialization slots are already committed
      // ahead of this packet.
      const auto backlog = static_cast<std::size_t>(
          (start - sim_.now()) / serialization);
      if (backlog >= w->queue_limit) {
        ++dropped_queue_;  // tail drop: the congestion signal
        return;
      }
    }
    w->busy_until = start + serialization;
    depart = w->busy_until;
  }

  sim_.schedule_lane(w->lane, depart + w->delay, &Network::arrive, w, 0);
  w->in_flight.push_back(std::move(pkt));
}

void Network::arrive(void* wire, std::uint64_t /*unused*/) {
  // Take the packet BEFORE on_packet: the receiver may transmit on this
  // wire, which can grow its ring.
  Wire& w = *static_cast<Wire*>(wire);
  Packet pkt = w.in_flight.pop_front();
  Network& net = *w.net;
  pkt.ingress_port = w.port;
  pkt.ingress_ts = net.sim_.now();
  ++net.delivered_;
  net.nodes_[w.node]->on_packet(w.port, std::move(pkt));
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

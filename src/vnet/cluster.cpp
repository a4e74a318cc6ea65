#include "vnet/cluster.hpp"

#include <stdexcept>

namespace dac::vnet {

Cluster::Cluster(ClusterTopology topo)
    : topo_(std::move(topo)), fabric_(std::make_unique<Fabric>(topo_.network)) {
  if (!topo_.hostnames.empty() &&
      topo_.hostnames.size() != topo_.node_count) {
    throw std::invalid_argument(
        "ClusterTopology: hostnames must match node_count");
  }
  nodes_.reserve(topo_.node_count);
  for (std::size_t i = 0; i < topo_.node_count; ++i) {
    std::string name = topo_.hostnames.empty()
                           ? topo_.hostname_prefix + std::to_string(i)
                           : topo_.hostnames[i];
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(i),
                                            std::move(name), *fabric_,
                                            topo_.process_start_delay));
  }
}

Cluster::~Cluster() { shutdown(); }

Node& Cluster::node(std::size_t index) {
  if (index >= nodes_.size()) {
    throw std::out_of_range("Cluster::node: index " + std::to_string(index) +
                            " out of range (" + std::to_string(nodes_.size()) +
                            " nodes)");
  }
  return *nodes_[index];
}

Node* Cluster::find_node(NodeId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<std::size_t>(id)].get();
}

Node* Cluster::find_node(const std::string& hostname) {
  for (auto& n : nodes_) {
    if (n->hostname() == hostname) return n.get();
  }
  return nullptr;
}

void Cluster::shutdown() {
  if (!fabric_) return;
  // The network goes first: what is still in flight is torn down with the
  // cluster, not delivered to daemons that are stopping, where it would
  // count as dropped.
  fabric_->shutdown();
  for (auto& n : nodes_) n->stop_all_processes();
}

}  // namespace dac::vnet

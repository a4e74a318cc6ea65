// The virtual cluster: a fabric plus a fixed set of named nodes. This is the
// hardware layer every higher substrate (minimpi, torque, dacc) runs on. The
// paper's testbed — 8 nodes, one acting as head node — is an instance of
// this class.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "vnet/fabric.hpp"
#include "vnet/node.hpp"

namespace dac::vnet {

struct ClusterTopology {
  std::size_t node_count = 8;
  std::string hostname_prefix = "node";
  // If non-empty, overrides prefix+index naming; must have node_count
  // entries (e.g. "head", "cn0", "cn1", "ac0", ...).
  std::vector<std::string> hostnames;
  NetworkModel network;
  // Simulated process start cost (fork+exec+daemon init on a real system).
  std::chrono::microseconds process_start_delay{1000};
};

class Cluster {
 public:
  explicit Cluster(ClusterTopology topo);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t index);
  [[nodiscard]] Node* find_node(NodeId id);
  [[nodiscard]] Node* find_node(const std::string& hostname);
  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const ClusterTopology& topology() const { return topo_; }

  // Stops the fabric, then every process on every node.
  void shutdown();

 private:
  ClusterTopology topo_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace dac::vnet

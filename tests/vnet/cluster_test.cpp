#include "vnet/cluster.hpp"
#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace dac::vnet {
namespace {

using namespace std::chrono_literals;

ClusterTopology small_topo() {
  ClusterTopology t;
  t.node_count = 4;
  t.network.latency = std::chrono::microseconds(50);
  t.process_start_delay = std::chrono::microseconds(0);
  return t;
}

TEST(Cluster, CreatesNamedNodes) {
  Cluster c(small_topo());
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.node(0).hostname(), "node0");
  EXPECT_EQ(c.node(3).hostname(), "node3");
}

TEST(Cluster, FindNodeById) {
  Cluster c(small_topo());
  ASSERT_NE(c.find_node(NodeId{2}), nullptr);
  EXPECT_EQ(c.find_node(NodeId{2})->id(), 2);
  EXPECT_EQ(c.find_node(NodeId{17}), nullptr);
  EXPECT_EQ(c.find_node(NodeId{-1}), nullptr);
}

TEST(Cluster, FindNodeByName) {
  Cluster c(small_topo());
  ASSERT_NE(c.find_node("node1"), nullptr);
  EXPECT_EQ(c.find_node("node1")->id(), 1);
  EXPECT_EQ(c.find_node("nope"), nullptr);
}

TEST(Cluster, NodeIndexOutOfRangeThrows) {
  Cluster c(small_topo());
  EXPECT_THROW((void)c.node(4), std::out_of_range);
}

TEST(Cluster, CrossNodeMessaging) {
  Cluster c(small_topo());
  auto a = c.node(0).open_endpoint();
  auto b = c.node(3).open_endpoint();
  a->send(b->address(), 9, {});
  auto msg = b->recv_for(1000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from.node, 0);
}

TEST(Cluster, ShutdownStopsProcesses) {
  Cluster c(small_topo());
  dac::Latch started{4};
  std::atomic<int> stopped{0};
  for (std::size_t i = 0; i < c.size(); ++i) {
    c.node(i).spawn({.name = "d"}, [&](Process& proc) {
      auto ep = proc.open_endpoint();
      started.count_down();
      while (auto m = ep->recv()) {
      }
      ++stopped;
    });
  }
  // A kill that lands before the entry runs skips the entry entirely (like
  // SIGKILL before exec), so wait until every daemon is actually blocking.
  started.wait();
  c.shutdown();
  EXPECT_EQ(stopped, 4);
}

TEST(Cluster, ShutdownIsIdempotent) {
  Cluster c(small_topo());
  c.shutdown();
  c.shutdown();
}

TEST(Cluster, CustomHostnamePrefix) {
  auto t = small_topo();
  t.hostname_prefix = "ac";
  Cluster c(t);
  EXPECT_EQ(c.node(0).hostname(), "ac0");
}

}  // namespace
}  // namespace dac::vnet

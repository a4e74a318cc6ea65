#include "arm/arm.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "vnet/cluster.hpp"

namespace dac::arm {
namespace {

class ArmTest : public ::testing::Test {
 protected:
  ArmTest() : cluster_([] {
    vnet::ClusterTopology t;
    t.node_count = 6;
    t.network.latency = std::chrono::microseconds(50);
    t.process_start_delay = std::chrono::microseconds(0);
    return t;
  }()) {
    std::vector<PrototypeArm::PoolEntry> pool;
    for (vnet::NodeId id = 2; id <= 5; ++id) {
      pool.push_back({id, "ac" + std::to_string(id - 2)});
    }
    arm_ = std::make_unique<PrototypeArm>(cluster_.node(0), std::move(pool));
    proc_ = cluster_.node(0).spawn(
        {.name = "arm"}, [this](vnet::Process& p) { arm_->run(p); });
  }

  // Members go before cluster_ would stop the daemon: stop it first, or
  // its loop runs on a destroyed arm_ (a use-after-free TSan reports).
  ~ArmTest() override {
    proc_->request_stop();
    proc_->join();
  }

  ArmClient client() { return ArmClient(cluster_.node(1), arm_->address()); }

  vnet::Cluster cluster_;
  std::unique_ptr<PrototypeArm> arm_;
  vnet::ProcessPtr proc_;
};

TEST_F(ArmTest, StatusReportsPool) {
  auto s = client().status();
  EXPECT_EQ(s.total, 4);
  EXPECT_EQ(s.free, 4);
  EXPECT_EQ(s.sets_outstanding, 0);
}

TEST_F(ArmTest, AllocGrantsDistinctNodes) {
  auto c = client();
  auto a = c.alloc(3);
  ASSERT_TRUE(a.granted);
  EXPECT_EQ(a.nodes.size(), 3u);
  EXPECT_EQ(a.hostnames.size(), 3u);
  std::sort(a.nodes.begin(), a.nodes.end());
  EXPECT_EQ(std::unique(a.nodes.begin(), a.nodes.end()), a.nodes.end());
  EXPECT_EQ(c.status().free, 1);
  c.free_set(a.set_id);
}

TEST_F(ArmTest, RejectsWhenInsufficient) {
  auto c = client();
  auto a = c.alloc(3);
  ASSERT_TRUE(a.granted);
  auto b = c.alloc(2);  // only 1 free
  EXPECT_FALSE(b.granted);
  EXPECT_EQ(c.status().free, 1);  // rejection allocates nothing
  c.free_set(a.set_id);
}

TEST_F(ArmTest, RejectsNonPositiveCount) {
  auto c = client();
  EXPECT_FALSE(c.alloc(0).granted);
  EXPECT_FALSE(c.alloc(-1).granted);
}

TEST_F(ArmTest, FreeRestoresPool) {
  auto c = client();
  auto a = c.alloc(2);
  auto b = c.alloc(2);
  ASSERT_TRUE(a.granted && b.granted);
  EXPECT_EQ(c.status().free, 0);
  c.free_set(a.set_id);
  EXPECT_EQ(c.status().free, 2);
  c.free_set(b.set_id);
  EXPECT_EQ(c.status().free, 4);
  EXPECT_EQ(c.status().sets_outstanding, 0);
}

TEST_F(ArmTest, FreeUnknownSetThrows) {
  auto c = client();
  EXPECT_THROW(c.free_set(777), util::ProtocolError);
}

TEST_F(ArmTest, SetsFreeInAnyOrder) {
  // Unlike the MPI-layer LIFO constraint of AcSession, the raw ARM pool has
  // no ordering requirement.
  auto c = client();
  auto a = c.alloc(1);
  auto b = c.alloc(1);
  auto d = c.alloc(1);
  c.free_set(b.set_id);
  c.free_set(a.set_id);
  c.free_set(d.set_id);
  EXPECT_EQ(c.status().free, 4);
}

TEST_F(ArmTest, ReuseAfterFree) {
  auto c = client();
  auto a = c.alloc(4);
  ASSERT_TRUE(a.granted);
  c.free_set(a.set_id);
  auto b = c.alloc(4);
  EXPECT_TRUE(b.granted);
  c.free_set(b.set_id);
}

}  // namespace
}  // namespace dac::arm

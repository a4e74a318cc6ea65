#include "vnet/node.hpp"
#include "util/sync.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "vnet/fabric.hpp"

namespace dac::vnet {
namespace {

using namespace std::chrono_literals;

NetworkModel fast_model() {
  NetworkModel m;
  m.latency = std::chrono::microseconds(50);
  m.loopback_latency = std::chrono::microseconds(10);
  return m;
}

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : fabric_(fast_model()), node_(0, "n0", fabric_, 0us) {}
  Fabric fabric_;
  Node node_;
};

TEST_F(NodeTest, SpawnRunsEntry) {
  std::atomic<bool> ran{false};
  auto p = node_.spawn({.name = "t"}, [&](Process&) { ran = true; });
  p->join();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(p->finished());
}

TEST_F(NodeTest, StartDelayDelaysEntry) {
  const auto start = dac::simtime::now();
  std::atomic<bool> ran{false};
  auto p = node_.spawn({.name = "t", .start_delay = 30000us},
                       [&](Process&) { ran = true; });
  p->join();
  EXPECT_TRUE(ran);
  EXPECT_GE(dac::simtime::now() - start, 25ms);
}

TEST_F(NodeTest, EnvVisibleToEntry) {
  std::string seen;
  auto p = node_.spawn({.name = "t", .env = {{"PBS_JOBID", "42"}}},
                       [&](Process& proc) {
                         seen = proc.getenv("PBS_JOBID").value_or("none");
                         EXPECT_FALSE(proc.getenv("MISSING").has_value());
                       });
  p->join();
  EXPECT_EQ(seen, "42");
}

TEST_F(NodeTest, EndpointRoundTrip) {
  auto a = node_.open_endpoint();
  auto b = node_.open_endpoint();
  a->send(b->address(), 5, util::Bytes(3));
  auto msg = b->recv_for(1000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 5u);
  EXPECT_EQ(msg->from, a->address());
}

TEST_F(NodeTest, RequestStopClosesProcessEndpoints) {
  std::atomic<bool> returned{false};
  dac::Latch entered{1};
  auto p = node_.spawn({.name = "daemon"}, [&](Process& proc) {
    auto ep = proc.open_endpoint();
    entered.count_down();
    while (auto msg = ep->recv()) {
      // consume forever
    }
    returned = true;
  });
  entered.wait();
  // recv() blocks until the stop: returned can only flip after it.
  EXPECT_FALSE(returned);
  p->request_stop();
  p->join();
  EXPECT_TRUE(returned);
}

TEST_F(NodeTest, StopAllProcessesJoinsEverything) {
  for (int i = 0; i < 3; ++i) {
    node_.spawn({.name = "d" + std::to_string(i)}, [](Process& proc) {
      auto ep = proc.open_endpoint();
      while (auto msg = ep->recv()) {
      }
    });
  }
  EXPECT_EQ(node_.processes().size(), 3u);
  node_.stop_all_processes();
  EXPECT_TRUE(node_.processes().empty());
}

// Spawns `n` processes that return at once, each joined and let go.
void run_quick(Node& node, int n) {
  for (int i = 0; i < n; ++i) {
    node.spawn({.name = "quick"}, [](Process&) {})->join();
  }
}

TEST_F(NodeTest, FinishedProcessesLeaveTheTable) {
  run_quick(node_, 1000);
  // The table is swept whenever it doubles: what is left is bounded by the
  // sweep threshold, not by the 1,000 processes that ran.
  EXPECT_LE(node_.processes().size(), 64u);
}

TEST_F(NodeTest, HeldFinishedProcessStaysFindableUntilReleased) {
  auto held = node_.spawn({.name = "held"}, [](Process&) {});
  held->join();
  const auto pid = held->pid();
  run_quick(node_, 200);
  EXPECT_EQ(node_.find_process(pid), held);
  held.reset();
  run_quick(node_, 200);
  EXPECT_EQ(node_.find_process(pid), nullptr);
}

TEST_F(NodeTest, SweepsSpareLiveProcessesAndStopAllStopsThem) {
  std::atomic<bool> returned{false};
  auto daemon = node_.spawn({.name = "daemon"}, [&](Process& proc) {
    auto ep = proc.open_endpoint();
    while (auto msg = ep->recv()) {
    }
    returned = true;
  });
  const auto pid = daemon->pid();
  daemon.reset();  // only the table holds it now
  run_quick(node_, 200);
  ASSERT_NE(node_.find_process(pid), nullptr);
  EXPECT_FALSE(returned);
  node_.stop_all_processes();
  EXPECT_TRUE(returned);
  EXPECT_TRUE(node_.processes().empty());
}

TEST_F(NodeTest, FindProcessByPid) {
  auto p = node_.spawn({.name = "x"}, [](Process& proc) {
    auto ep = proc.open_endpoint();
    while (auto msg = ep->recv()) {
    }
  });
  EXPECT_EQ(node_.find_process(p->pid()), p);
  EXPECT_EQ(node_.find_process(99999), nullptr);
  node_.stop_all_processes();
}

TEST_F(NodeTest, AddressesAreUniquePerNode) {
  auto a1 = node_.allocate_address();
  auto a2 = node_.allocate_address();
  EXPECT_NE(a1.port, a2.port);
  EXPECT_EQ(a1.node, a2.node);
}

TEST_F(NodeTest, ExceptionInEntryDoesNotCrash) {
  auto p = node_.spawn({.name = "bad"}, [](Process&) {
    throw std::runtime_error("boom");
  });
  p->join();
  EXPECT_TRUE(p->finished());
}

TEST_F(NodeTest, SetenvVisibleAfterwards) {
  auto p = node_.spawn({.name = "t"}, [](Process& proc) {
    proc.setenv("KEY", "VAL");
    EXPECT_EQ(proc.getenv("KEY").value_or(""), "VAL");
  });
  p->join();
}

}  // namespace
}  // namespace dac::vnet

#include "torque/task_registry.hpp"
#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "util/queue.hpp"
#include "vnet/cluster.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;

class TaskRegistryTest : public ::testing::Test {
 protected:
  TaskRegistryTest() : cluster_([] {
    vnet::ClusterTopology t;
    t.node_count = 3;
    t.process_start_delay = std::chrono::microseconds(0);
    return t;
  }()) {}

  // Spawns a process that blocks until killed; bumps `counter` on exit.
  // Waits until the task is actually blocking, so a kill cannot land before
  // the entry runs (which would skip it entirely, like SIGKILL pre-exec).
  vnet::ProcessPtr spawn_blocker(std::size_t node, std::atomic<int>& counter) {
    dac::Latch started{1};
    auto p = cluster_.node(node).spawn(
        {.name = "task"}, [&counter, &started](vnet::Process& proc) {
          auto ep = proc.open_endpoint();
          started.count_down();
          while (auto m = ep->recv()) {
          }
          ++counter;
        });
    started.wait();
    return p;
  }

  vnet::Cluster cluster_;
  TaskRegistry registry_;
};

TEST_F(TaskRegistryTest, KillNodeTasksOnlyAffectsThatNode) {
  std::atomic<int> killed{0};
  registry_.add(1, 0, spawn_blocker(0, killed));
  registry_.add(1, 1, spawn_blocker(1, killed));
  registry_.add(1, 1, spawn_blocker(1, killed));
  EXPECT_EQ(registry_.task_count(1), 3u);

  registry_.kill_node_tasks(1, 1);
  EXPECT_EQ(killed, 2);
  EXPECT_EQ(registry_.task_count(1), 1u);
  registry_.kill_job(1);
  EXPECT_EQ(killed, 3);
}

TEST_F(TaskRegistryTest, KillJobOnlyAffectsThatJob) {
  std::atomic<int> k1{0};
  std::atomic<int> k2{0};
  registry_.add(1, 0, spawn_blocker(0, k1));
  registry_.add(2, 0, spawn_blocker(0, k2));
  registry_.kill_job(1);
  EXPECT_EQ(k1, 1);
  EXPECT_EQ(k2, 0);
  EXPECT_EQ(registry_.task_count(2), 1u);
  registry_.kill_job(2);
}

TEST_F(TaskRegistryTest, KillUnknownJobIsNoop) {
  registry_.kill_job(99);
  registry_.kill_node_tasks(99, 0);
}

TEST_F(TaskRegistryTest, JoinJobWaitsWithoutKilling) {
  std::atomic<int> done{0};
  util::BlockingQueue<int> go;  // keeps the task alive past add()
  auto p = cluster_.node(0).spawn({.name = "quick"}, [&](vnet::Process&) {
    (void)go.pop();
    ++done;
  });
  registry_.add(3, 0, p);
  (void)go.push(1);
  registry_.join_job(3);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(registry_.task_count(3), 0u);
}

TEST_F(TaskRegistryTest, FinishedTaskLeavesTheNodeOnceTheRegistryLetsGo) {
  auto& node = cluster_.node(0);
  auto task = node.spawn({.name = "q"}, [](vnet::Process&) {});
  const auto pid = task->pid();
  registry_.add(1, 0, std::move(task));
  const auto spawn_quick = [&node](int n) {
    for (int i = 0; i < n; ++i) {
      node.spawn({.name = "other"}, [](vnet::Process&) {})->join();
    }
  };
  // Finished, but the registry holds it: the node's sweeps keep it.
  spawn_quick(200);
  EXPECT_NE(node.find_process(pid), nullptr);
  EXPECT_EQ(registry_.task_count(1), 1u);
  // The job's end takes the task from the registry; the next sweep drops it.
  registry_.join_job(1);
  spawn_quick(200);
  EXPECT_EQ(node.find_process(pid), nullptr);
  EXPECT_LE(node.processes().size(), 64u);
}

}  // namespace
}  // namespace dac::torque

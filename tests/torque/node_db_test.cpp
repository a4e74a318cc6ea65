#include "torque/node_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace dac::torque {
namespace {

NodeStatus make_node(const std::string& name, NodeKind kind, int np) {
  NodeStatus n;
  n.hostname = name;
  n.node_id = 1;
  n.kind = kind;
  n.np = np;
  n.mom_addr = {1, 0};
  return n;
}

TEST(NodeDb, UpsertAndLookup) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  ASSERT_TRUE(db.lookup("cn0").has_value());
  EXPECT_EQ(db.lookup("cn0")->np, 8);
  EXPECT_FALSE(db.lookup("ghost").has_value());
  EXPECT_EQ(db.size(), 1u);
}

TEST(NodeDb, UpsertRefreshKeepsAssignments) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  ASSERT_TRUE(db.assign("cn0", 1, 4));
  auto refreshed = make_node("cn0", NodeKind::kCompute, 16);
  db.upsert(refreshed);
  EXPECT_EQ(db.lookup("cn0")->np, 16);
  EXPECT_EQ(db.lookup("cn0")->used, 4);  // assignment survived
}

TEST(NodeDb, AssignRespectsCapacity) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  EXPECT_TRUE(db.assign("cn0", 1, 6));
  EXPECT_FALSE(db.assign("cn0", 2, 4));  // only 2 free
  EXPECT_TRUE(db.assign("cn0", 2, 2));
  EXPECT_EQ(db.lookup("cn0")->free_slots(), 0);
}

TEST(NodeDb, AssignUnknownHostFails) {
  NodeDb db;
  EXPECT_FALSE(db.assign("ghost", 1, 1));
}

TEST(NodeDb, ReleasePerHost) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  ASSERT_TRUE(db.assign("cn0", 1, 3));
  ASSERT_TRUE(db.assign("cn0", 2, 2));
  db.release("cn0", 1);
  EXPECT_EQ(db.lookup("cn0")->used, 2);
  EXPECT_EQ(db.lookup("cn0")->jobs, (std::vector<JobId>{2}));
  db.release("cn0", 99);  // unknown job: no-op
  EXPECT_EQ(db.lookup("cn0")->used, 2);
}

TEST(NodeDb, ReleaseAllAcrossHosts) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  db.upsert(make_node("ac0", NodeKind::kAccelerator, 1));
  ASSERT_TRUE(db.assign("cn0", 1, 2));
  ASSERT_TRUE(db.assign("ac0", 1, 1));
  db.release_all(1);
  EXPECT_EQ(db.lookup("cn0")->used, 0);
  EXPECT_EQ(db.lookup("ac0")->used, 0);
}

TEST(NodeDb, MultipleAssignmentsSameJobAccumulate) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  ASSERT_TRUE(db.assign("cn0", 1, 2));
  ASSERT_TRUE(db.assign("cn0", 1, 2));
  EXPECT_EQ(db.lookup("cn0")->used, 4);
  EXPECT_EQ(db.lookup("cn0")->jobs.size(), 1u);  // listed once
  db.release("cn0", 1);
  EXPECT_EQ(db.lookup("cn0")->used, 0);
}

TEST(NodeDb, AcceleratorExclusivity) {
  NodeDb db;
  db.upsert(make_node("ac0", NodeKind::kAccelerator, 1));
  EXPECT_TRUE(db.assign("ac0", 1, 1));
  EXPECT_FALSE(db.assign("ac0", 2, 1));
}

TEST(NodeDb, MomOf) {
  NodeDb db;
  auto n = make_node("cn0", NodeKind::kCompute, 8);
  n.mom_addr = {3, 14};
  db.upsert(n);
  ASSERT_TRUE(db.mom_of("cn0").has_value());
  EXPECT_EQ(*db.mom_of("cn0"), (vnet::Address{3, 14}));
  EXPECT_FALSE(db.mom_of("ghost").has_value());
}

TEST(NodeDb, SnapshotIsCopy) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  auto snap = db.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  snap[0].used = 99;
  EXPECT_EQ(db.lookup("cn0")->used, 0);
}

TEST(NodeDb, SnapshotSortedByHostname) {
  NodeDb db;
  for (int i = 15; i >= 0; --i) {
    db.upsert(make_node("cn" + std::to_string(i), NodeKind::kCompute, 8));
  }
  const auto snap = db.snapshot();
  ASSERT_EQ(snap.size(), 16u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].hostname, snap[i].hostname);
  }
}

TEST(NodeDb, DirtyTracksSchedulerVisibleChanges) {
  NodeDb db;
  db.upsert(make_node("cn0", NodeKind::kCompute, 8));
  db.upsert(make_node("ac0", NodeKind::kAccelerator, 1));
  EXPECT_EQ(db.drain_dirty(), (std::vector<std::string>{"ac0", "cn0"}));
  EXPECT_TRUE(db.drain_dirty().empty());  // drained

  ASSERT_TRUE(db.assign("ac0", 1, 1));
  EXPECT_EQ(db.drain_dirty(), (std::vector<std::string>{"ac0"}));

  db.release("ac0", 1);
  db.release("ac0", 1);  // second release is a no-op: not re-dirtied
  EXPECT_EQ(db.drain_dirty(), (std::vector<std::string>{"ac0"}));

  // Heartbeats only dirty a node when they revive it.
  db.heartbeat("cn0", 1.0);
  EXPECT_TRUE(db.drain_dirty().empty());
}

TEST(NodeDb, LivenessTransitionsInHostnameOrder) {
  NodeDb db;
  for (const char* h : {"cn3", "ac1", "cn0", "ac0", "cn2"}) {
    db.upsert(make_node(h, NodeKind::kCompute, 4));
    (void)db.heartbeat(h, 0.0);
  }
  const std::vector<std::string> sorted{"ac0", "ac1", "cn0", "cn2", "cn3"};

  auto changes = db.refresh_liveness(4.0, /*suspect_after=*/3.0,
                                     /*down_after=*/5.0);
  EXPECT_EQ(changes.went_suspect, sorted);
  EXPECT_TRUE(changes.went_down.empty());

  changes = db.refresh_liveness(10.0, 3.0, 5.0);
  EXPECT_TRUE(changes.went_suspect.empty());
  EXPECT_EQ(changes.went_down, sorted);
  EXPECT_FALSE(db.lookup("cn2")->up);

  // One heartbeat revives a host; a second one is not a revival.
  EXPECT_TRUE(db.heartbeat("cn2", 10.0));
  EXPECT_EQ(db.lookup("cn2")->liveness, Liveness::kUp);
  EXPECT_TRUE(db.lookup("cn2")->up);
  EXPECT_FALSE(db.heartbeat("cn2", 10.0));

  // Every host is silent past suspect_after but short of down_after: the
  // revived one turns suspect, the down ones stay down.
  changes = db.refresh_liveness(13.0, /*suspect_after=*/2.0,
                                /*down_after=*/100.0);
  EXPECT_EQ(changes.went_suspect, (std::vector<std::string>{"cn2"}));
  EXPECT_TRUE(changes.went_down.empty());
  for (const char* h : {"ac0", "ac1", "cn0", "cn3"}) {
    EXPECT_EQ(db.lookup(h)->liveness, Liveness::kDown) << h;
  }
}

// Seeded slot traffic from eight interleaved clients on shared hosts, with
// snapshots and dirty drains taken between rounds. Every op and every
// snapshot keeps 0 <= used <= np; once each client has returned what it
// holds, nothing has leaked and nothing was freed twice.
TEST(NodeDb, SeededTrafficConserves) {
  constexpr int kHosts = 24;
  constexpr int kSlotsPerHost = 4;
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 2'000;
  const auto host_name = [](int i) { return "stress-cn" + std::to_string(i); };

  NodeDb db;
  for (int i = 0; i < kHosts; ++i) {
    NodeStatus n;
    n.hostname = host_name(i);
    n.kind = NodeKind::kCompute;
    n.np = kSlotsPerHost;
    db.upsert(n);
    (void)db.heartbeat(n.hostname, 0.0);
  }

  const auto check_bounds = [](const NodeStatus& n) {
    EXPECT_GE(n.used, 0) << n.hostname;
    EXPECT_LE(n.used, n.np) << n.hostname;
  };

  // Each client owns a disjoint JobId range; hosts are shared.
  struct Client {
    std::mt19937 rng;
    std::vector<std::pair<std::string, JobId>> held;
  };
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    const auto seed = 0x5EED'0000u + static_cast<std::uint32_t>(c);
    clients.push_back({std::mt19937(seed), {}});
  }
  std::mt19937 reader(0xC0FFEEu);

  for (int op = 0; op < kOpsPerClient; ++op) {
    for (int c = 0; c < kClients; ++c) {
      auto& [rng, held] = clients[static_cast<std::size_t>(c)];
      const auto host = host_name(static_cast<int>(rng() % kHosts));
      const JobId job = 1'000u * static_cast<JobId>(c + 1) + rng() % 8;
      switch (rng() % 6) {
        case 0:
        case 1:
          if (db.assign(host, job, 1)) held.emplace_back(host, job);
          break;
        case 2:
          if (!held.empty()) {
            const auto [h, j] = held.back();
            held.pop_back();
            db.release(h, j);
          }
          break;
        case 3:
          (void)db.heartbeat(host, static_cast<double>(op));
          break;
        case 4:
          break;  // lookup only, checked below
        case 5:
          EXPECT_TRUE(db.mom_of(host).has_value());
          break;
      }
      const auto st = db.lookup(host);
      ASSERT_TRUE(st.has_value());
      check_bounds(*st);
    }
    const auto snap = db.snapshot();
    EXPECT_EQ(snap.size(), static_cast<std::size_t>(kHosts));
    for (const auto& n : snap) check_bounds(n);
    if ((reader() % 2) == 0) (void)db.drain_dirty();
  }

  // release() frees every slot a job holds on the host, so releasing each
  // recorded (host, job) pair returns everything; repeats are no-ops.
  for (const auto& client : clients) {
    for (const auto& [h, j] : client.held) db.release(h, j);
  }

  int total_free = 0;
  int total_used = 0;
  for (const auto& n : db.snapshot()) {
    total_free += n.free_slots();
    total_used += n.used;
    EXPECT_TRUE(n.jobs.empty()) << n.hostname << " still lists holders";
  }
  EXPECT_EQ(total_used, 0);
  EXPECT_EQ(total_free, kHosts * kSlotsPerHost);

  const auto dirty = db.drain_dirty();
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_TRUE(db.drain_dirty().empty());
}

}  // namespace
}  // namespace dac::torque

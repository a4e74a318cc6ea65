// The incremental ≡ full-rescan contract, pinned at the feed level: a model
// server mutates scheduler-visible state exactly the way PbsServer does
// (every job mutation routed through DirtyTracker::touch, every node change
// through the NodeDb's own dirty set), builds SchedDeltas the way
// PbsServer::take_delta does, and the test asserts that a QueueMirror
// folding any prefix of deltas reconstructs byte-identical fetch inputs to
// a full fetch taken at the same instant.
//
// This is the property that makes pushed deltas safe to decide on: the
// scheduler's decisions are a pure function of (queue(), node_views()), so
// reconstruction equivalence implies decision equivalence. The suite runs
// ≥1000 seeded random event streams. Each folds several pushed wake deltas
// and one reply delta per cycle, checks the cycle's re-evaluation set
// against what one fetch over the same span carries, replays stale deltas
// (ignored), loses one delta (the gap forces a full fetch), and exercises
// the forced full-rescan path (which must change nothing) and a scheduler
// restart (epoch mismatch forces a full serve).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "maui/queue_mirror.hpp"
#include "torque/node_db.hpp"
#include "torque/sched_feed.hpp"
#include "torque/server.hpp"
#include "util/bytes.hpp"

namespace dac::maui {
namespace {

// Scheduler-visible server state plus the same dirty bookkeeping PbsServer
// keeps: DirtyTracker for jobs, the NodeDb's dirty set for nodes.
struct ModelServer {
  std::map<torque::JobId, torque::JobInfo> jobs;
  torque::NodeDb nodes;
  torque::DirtyTracker feed;
  std::vector<torque::DynQueueEntry> dyn;
  std::vector<elastic::JobView> elastic;
  double now = 0.0;
  torque::JobId next_id = 1;
  std::uint64_t next_dyn = 1;
  // Ids one fetch would carry if taken now: touched since the last delta
  // that ended a cycle's span, or every live job after a full one.
  std::set<torque::JobId> span;

  void touch(torque::JobId id) {
    feed.touch(id);
    span.insert(id);
  }

  static bool terminal(const torque::JobInfo& j) {
    return j.state == torque::JobState::kComplete ||
           j.state == torque::JobState::kCancelled;
  }

  // Mirrors PbsServer::take_delta: a kGetSched fetch, draining the dirty
  // bookkeeping and advancing the epoch.
  torque::SchedDelta fetch(std::uint64_t client_epoch, bool force_full) {
    const auto f = feed.begin_fetch(client_epoch, force_full);
    torque::SchedDelta d;
    d.epoch = f.epoch;
    d.full = f.full;
    d.now = now;
    if (f.full) {
      for (const auto& [id, info] : jobs) {
        if (!terminal(info)) d.jobs.push_back(info);
      }
      d.nodes = nodes.snapshot();
      (void)nodes.drain_dirty();
      span.clear();
      for (const auto& j : d.jobs) span.insert(j.id);
    } else {
      for (const auto id : f.jobs) {
        if (const auto it = jobs.find(id); it != jobs.end()) {
          d.jobs.push_back(it->second);
        }
      }
      for (const auto& host : nodes.drain_dirty()) {
        if (auto st = nodes.lookup(host)) d.nodes.push_back(*std::move(st));
      }
    }
    d.dyn = dyn;
    d.elastic = elastic;
    return d;
  }

  // A delta the server pushes in kSchedWake or ends a reply with: always
  // against its own epoch.
  torque::SchedDelta push() { return fetch(feed.epoch(), false); }

  // The comparison oracle: a full reconstruction of the current state that
  // does NOT touch the dirty bookkeeping, so taking it never perturbs the
  // incremental stream under test.
  torque::SchedDelta reference() const {
    torque::SchedDelta d;
    d.epoch = 1;  // any epoch folds into a fresh mirror
    d.full = true;
    d.now = now;
    for (const auto& [id, info] : jobs) {
      if (!terminal(info)) d.jobs.push_back(info);
    }
    d.nodes = nodes.snapshot();
    d.dyn = dyn;
    d.elastic = elastic;
    return d;
  }
};

// Every delta crosses the wire before it is folded, so the serializers are
// part of the property: a field put_sched_delta forgets would surface as an
// equivalence failure, not silently ride along in-process.
torque::SchedDelta round_trip(const torque::SchedDelta& d) {
  util::ByteWriter w;
  torque::put_sched_delta(w, d);
  const util::Bytes bytes = std::move(w).take();
  util::ByteReader r(bytes);
  return torque::get_sched_delta(r);
}

util::Bytes queue_bytes(const QueueMirror& m) {
  util::ByteWriter w;
  torque::put_queue_snapshot(w, m.queue());
  return std::move(w).take();
}

::testing::AssertionResult mirrors_equal(const QueueMirror& inc,
                                         const QueueMirror& full) {
  if (queue_bytes(inc) != queue_bytes(full)) {
    return ::testing::AssertionFailure()
           << "queue() diverged: incremental has " << inc.job_count()
           << " jobs, full has " << full.job_count();
  }
  const auto a = inc.node_views();
  const auto b = full.node_views();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "node_views() size: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].hostname != b[i].hostname || a[i].kind != b[i].kind ||
        a[i].free != b[i].free) {
      return ::testing::AssertionFailure()
             << "node_views()[" << i << "]: " << a[i].hostname << "/"
             << a[i].free << " vs " << b[i].hostname << "/" << b[i].free;
    }
  }
  return ::testing::AssertionSuccess();
}

// One random scheduler-visible mutation, routed through the same dirty
// bookkeeping the server uses. The op mix is weighted toward the lifecycle
// transitions (submit/start/finish) that the incremental feed must never
// miss.
void mutate(ModelServer& s, std::mt19937& rng) {
  s.now += 0.001 * static_cast<double>(rng() % 50);
  switch (rng() % 10) {
    case 0:
    case 1: {  // submit
      torque::JobInfo j;
      j.id = s.next_id++;
      j.spec.name = "j" + std::to_string(j.id);
      j.spec.owner = (rng() % 2) != 0 ? "alice" : "bob";
      j.spec.priority = static_cast<int>(rng() % 5);
      j.spec.resources.acpn = static_cast<int>(rng() % 2);
      j.submit_time = s.now;
      s.jobs.emplace(j.id, j);
      s.touch(j.id);
      break;
    }
    case 2:
    case 3: {  // start a queued job on a random node
      for (auto& [id, info] : s.jobs) {
        if (info.state != torque::JobState::kQueued) continue;
        const std::string host = "cn" + std::to_string(rng() % 6);
        if (!s.nodes.assign(host, id, 1)) break;  // full/unknown: skip round
        info.state = torque::JobState::kRunning;
        info.start_time = s.now;
        info.compute_hosts = {host};
        s.touch(id);
        break;
      }
      break;
    }
    case 4: {  // complete a running job (terminal transition)
      for (auto& [id, info] : s.jobs) {
        if (info.state != torque::JobState::kRunning) continue;
        info.state = torque::JobState::kComplete;
        info.end_time = s.now;
        for (const auto& h : info.compute_hosts) s.nodes.release(h, id);
        s.touch(id);
        break;
      }
      break;
    }
    case 5: {  // qalter on a queued job
      for (auto it = s.jobs.rbegin(); it != s.jobs.rend(); ++it) {
        if (it->second.state != torque::JobState::kQueued) continue;
        it->second.spec.priority = static_cast<int>(rng() % 9);
        s.touch(it->first);
        break;
      }
      break;
    }
    case 6: {  // (re)register a node — upsert dirties it
      torque::NodeStatus n;
      n.hostname = "cn" + std::to_string(rng() % 6);
      n.kind = torque::NodeKind::kCompute;
      n.np = 2 + static_cast<int>(rng() % 3);
      n.up = true;
      n.liveness = torque::Liveness::kUp;
      // upsert replaces the record, so re-register clears usage like a mom
      // restart would; release job bookkeeping to keep the model honest.
      s.nodes.upsert(n);
      break;
    }
    case 7: {  // heartbeat (only a revive is scheduler-visible)
      (void)s.nodes.heartbeat("cn" + std::to_string(rng() % 6), s.now);
      break;
    }
    case 8: {  // failure-detector tick: transitions dirty the nodes
      (void)s.nodes.refresh_liveness(s.now, /*suspect_after=*/0.5,
                                     /*down_after=*/1.0);
      break;
    }
    case 9: {  // dynamic-request churn (always shipped complete)
      if ((rng() % 2) != 0 || s.dyn.empty()) {
        torque::DynQueueEntry e;
        e.dyn_id = s.next_dyn++;
        e.job = 1 + rng() % std::max<torque::JobId>(1, s.next_id - 1);
        e.count = 1 + static_cast<int>(rng() % 3);
        e.min_count = 1;
        e.arrival = s.now;
        s.dyn.push_back(e);
      } else {
        s.dyn.erase(s.dyn.begin());
      }
      // Elastic views ride the same always-complete channel.
      if ((rng() % 3) == 0) {
        elastic::JobView v;
        v.job = 1 + rng() % std::max<torque::JobId>(1, s.next_id - 1);
        v.can_grow = (rng() % 2) != 0;
        v.appetite = static_cast<std::int32_t>(rng() % 4);
        s.elastic.assign(1, v);
      }
      break;
    }
  }
}

void run_stream(std::uint32_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
  std::mt19937 rng(seed);  // explicit seed: streams must be replayable
  ModelServer server;
  for (int i = 0; i < 6; ++i) {  // starting topology
    torque::NodeStatus n;
    n.hostname = "cn" + std::to_string(i);
    n.kind = i < 4 ? torque::NodeKind::kCompute : torque::NodeKind::kAccelerator;
    n.np = i < 4 ? 4 : 1;
    server.nodes.upsert(n);
    (void)server.nodes.heartbeat(n.hostname, 0.0);
  }

  QueueMirror mirror;  // the incremental consumer under test
  const auto expect_current = [&](const char* what, int cycle) {
    QueueMirror oracle;
    oracle.apply(round_trip(server.reference()));
    return mirrors_equal(mirror, oracle) ? ::testing::AssertionSuccess()
                                         : ::testing::AssertionFailure()
                                               << what << " in cycle "
                                               << cycle;
  };
  // First contact: a fresh mirror's fetch is served full.
  ASSERT_TRUE(mirror.apply(round_trip(server.fetch(mirror.epoch(), false))));
  ASSERT_TRUE(expect_current("first fetch", -1));
  (void)mirror.take_changed();

  const int cycles = 6 + static_cast<int>(rng() % 6);
  const int lost_at = static_cast<int>(rng() % static_cast<unsigned>(cycles));
  std::vector<torque::SchedDelta> seen;  // every delta folded, for replays
  for (int c = 0; c < cycles; ++c) {
    // Between cycles the server pushes one delta per wake; the cycle's
    // reply ends with one more. Each continues the epoch sequence.
    const int deltas = 2 + static_cast<int>(rng() % 4);
    for (int k = 0; k < deltas; ++k) {
      const int burst = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < burst; ++e) mutate(server, rng);
      const auto d = round_trip(server.push());
      ASSERT_FALSE(d.full);
      ASSERT_TRUE(mirror.apply(d)) << "delta " << k << " of cycle " << c;
      ASSERT_TRUE(expect_current("pushed delta", c));
      // A late copy of any delta already folded is stale: ignored.
      if (!seen.empty()) {
        ASSERT_FALSE(mirror.apply(seen[rng() % seen.size()]));
        ASSERT_TRUE(expect_current("stale replay", c));
      }
      seen.push_back(d);
    }
    // The cycle re-evaluates what one fetch over the span would carry.
    ASSERT_EQ(mirror.take_changed(), std::exchange(server.span, {}))
        << "cycle " << c;

    if (c == lost_at) {
      // A lost wake: the next delta skips an epoch and is not folded, nor
      // is any later one, until a full fetch repairs the mirror.
      mutate(server, rng);
      (void)server.push();
      for (int k = 0; k < 2; ++k) {
        mutate(server, rng);
        ASSERT_FALSE(mirror.apply(round_trip(server.push())));
        ASSERT_TRUE(mirror.needs_full());
      }
      ASSERT_TRUE(
          mirror.apply(round_trip(server.fetch(mirror.epoch(), true))));
      ASSERT_FALSE(mirror.needs_full());
      ASSERT_TRUE(expect_current("full fetch after a gap", c));
    } else if (c % 4 == 3) {
      // The rescan backstop, like SchedulerConfig::full_rescan_every: a
      // no-op on the fold.
      ASSERT_TRUE(
          mirror.apply(round_trip(server.fetch(mirror.epoch(), true))));
      ASSERT_TRUE(expect_current("forced full", c));
    }
  }

  // Scheduler restart: a fresh mirror opens with epoch 0, which must force
  // a full serve regardless of the tracker's accumulated epoch.
  for (int e = 0; e < 3; ++e) mutate(server, rng);
  QueueMirror restarted;
  const auto d = round_trip(server.fetch(restarted.epoch(), false));
  ASSERT_TRUE(d.full) << "epoch-0 fetch must be served full";
  restarted.apply(d);
  QueueMirror oracle;
  oracle.apply(round_trip(server.reference()));
  ASSERT_TRUE(mirrors_equal(restarted, oracle));

  // And the restarted mirror keeps folding deltas correctly: the old mirror
  // is now the stale consumer, whose next fetch (mismatched epoch) must be
  // served full again rather than a delta built for someone else.
  for (int e = 0; e < 3; ++e) mutate(server, rng);
  mirror.apply(round_trip(server.fetch(mirror.epoch(), false)));
  QueueMirror oracle2;
  oracle2.apply(round_trip(server.reference()));
  ASSERT_TRUE(mirrors_equal(mirror, oracle2));
}

TEST(SchedEquivalence, SeededStreamsBlockA) {
  for (std::uint32_t s = 0; s < 250; ++s) run_stream(0xD0'0000u + s);
}

TEST(SchedEquivalence, SeededStreamsBlockB) {
  for (std::uint32_t s = 0; s < 250; ++s) run_stream(0xD1'0000u + s);
}

TEST(SchedEquivalence, SeededStreamsBlockC) {
  for (std::uint32_t s = 0; s < 250; ++s) run_stream(0xD2'0000u + s);
}

TEST(SchedEquivalence, SeededStreamsBlockD) {
  for (std::uint32_t s = 0; s < 250; ++s) run_stream(0xD3'0000u + s);
}

// A delta with nothing dirty must still advance the epoch and fold to the
// same state — the idle-cycle case the scheduler hits constantly.
TEST(SchedEquivalence, EmptyDeltaIsIdentity) {
  ModelServer server;
  torque::NodeStatus n;
  n.hostname = "cn0";
  n.np = 4;
  server.nodes.upsert(n);
  std::mt19937 rng(0xE5EEDu);
  for (int i = 0; i < 5; ++i) mutate(server, rng);

  QueueMirror mirror;
  mirror.apply(round_trip(server.fetch(mirror.epoch(), false)));
  const auto before = queue_bytes(mirror);
  const auto epoch_before = mirror.epoch();

  const auto idle = round_trip(server.fetch(mirror.epoch(), false));
  EXPECT_FALSE(idle.full);
  EXPECT_TRUE(idle.jobs.empty());
  EXPECT_TRUE(idle.nodes.empty());
  mirror.apply(idle);
  EXPECT_GT(mirror.epoch(), epoch_before);
  EXPECT_EQ(queue_bytes(mirror), before);
}

}  // namespace
}  // namespace dac::maui

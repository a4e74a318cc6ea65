// pbs_mom unit tests: the sister-side protocol (JOIN_JOB / DYNJOIN_JOB /
// DISJOIN_JOB / JOB_UPDATE) driven directly with synthetic requests against
// a fake server, without a scheduler or mother superior; and the mother
// superior's sister fan-outs against a stub server, a stub sister, dead
// sister addresses and a second real mom: one deadline per fan-out, no
// deadlock between two mother superiors, and MS protocols in arrival order.
#include "torque/mom.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include "util/sync.hpp"

#include "harness/clock_mode.hpp"
#include "minimpi/proc.hpp"
#include "minimpi/runtime.hpp"
#include "vnet/cluster.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;

class MomTest : public ::testing::Test {
 protected:
  MomTest()
      : cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 3;
          t.network.latency = std::chrono::microseconds(50);
          t.process_start_delay = std::chrono::microseconds(0);
          return t;
        }()),
        runtime_(cluster_) {
    // Fake server: replies ok to registrations and remembers the mom's
    // long-lived endpoint address from the registration payload.
    server_ep_ = cluster_.node(0).open_endpoint();
    server_proc_ = cluster_.node(0).spawn(
        {.name = "fake_server"}, [this](vnet::Process& proc) {
          proc.adopt_mailbox(server_ep_->mailbox_weak());
          while (auto msg = server_ep_->recv()) {
            auto req = rpc::parse_request(*msg);
            if (req.type == MsgType::kRegisterNode) {
              util::ByteReader r(req.body);
              const auto st = get_node_status(r);
              {
                dac::ScopedLock lock(mu_);
                mom_addr_ = st.mom_addr;
                registered_ = true;
              }
              rpc::reply_ok(*server_ep_, req);
            }
          }
        });

    MomConfig mc;
    mc.kind = NodeKind::kAccelerator;
    mc.np = 1;
    mc.server = server_ep_->address();
    mc.timing = BatchTiming::fast();
    mom_ = std::make_unique<PbsMom>(cluster_.node(1), mc, runtime_, tasks_);
    mom_proc_ = cluster_.node(1).spawn(
        {.name = "pbs_mom"},
        [this](vnet::Process& proc) { mom_->run(proc); });

    const auto deadline = dac::simtime::now() + 5s;
    while (dac::simtime::now() < deadline) {
      dac::ScopedLock lock(mu_);
      if (registered_) break;
    }
  }

  ~MomTest() override { cluster_.shutdown(); }

  vnet::Address mom_addr() {
    dac::ScopedLock lock(mu_);
    return mom_addr_;
  }

  util::Bytes join_body(JobId id) {
    JobInfo j;
    j.id = id;
    j.spec.name = "j";
    util::ByteWriter w;
    put_job_info(w, j);
    put_host_refs(w, {{"cn0", 2, {2, 0}}, {"ac0", 1, mom_addr()}});
    return std::move(w).take();
  }

  util::Bytes set_body(JobId job, std::uint64_t client) {
    util::ByteWriter w;
    w.put<std::uint64_t>(job);
    w.put<std::uint64_t>(client);
    put_host_refs(w, {{"ac0", 1, mom_addr()}});
    return std::move(w).take();
  }

  vnet::Cluster cluster_;
  minimpi::Runtime runtime_;
  TaskRegistry tasks_;
  std::unique_ptr<vnet::Endpoint> server_ep_;
  vnet::ProcessPtr server_proc_;
  std::unique_ptr<PbsMom> mom_;
  vnet::ProcessPtr mom_proc_;

  dac::Mutex mu_{"test.events"};
  bool registered_ = false;
  vnet::Address mom_addr_;
};

TEST_F(MomTest, RegistersWithServer) {
  EXPECT_TRUE(mom_addr().valid());
}

TEST_F(MomTest, JoinJobAcks) {
  auto reply = rpc::call(cluster_.node(2), mom_addr(), MsgType::kJoinJob,
                         join_body(7));
  EXPECT_TRUE(reply.empty());  // plain ok
}

TEST_F(MomTest, DynJoinThenDisjoinAck) {
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kJoinJob,
                  join_body(8));
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kDynJoinJob,
                  set_body(8, 42));
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kDisjoinJob,
                  set_body(8, 42));
}

TEST_F(MomTest, DisjoinKillsOnlyThatSetsTasks) {
  std::atomic<bool> base_killed{false};
  std::atomic<bool> set_killed{false};
  dac::Latch base_done{1};
  dac::Latch set_done{1};
  auto spawn_task = [&](std::atomic<bool>& flag, dac::Latch& done,
                        std::uint64_t set) {
    dac::Latch started{1};
    auto p = cluster_.node(1).spawn(
        {.name = "task"}, [&flag, &done, &started](vnet::Process& proc) {
          auto ep = proc.open_endpoint();
          started.count_down();
          while (auto m = ep->recv()) {
          }
          flag = true;
          done.count_down();
        });
    started.wait();
    tasks_.add(9, cluster_.node(1).id(), p, set);
  };
  spawn_task(base_killed, base_done, 0);   // base job task
  spawn_task(set_killed, set_done, 77);    // dynamic-set task

  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kJoinJob,
                  join_body(9));
  // Set-scoped disjoin: only the set-77 task dies.
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kDisjoinJob,
                  set_body(9, 77));
  set_done.wait();
  EXPECT_TRUE(set_killed);
  EXPECT_FALSE(base_killed);

  // Full disjoin (client 0): the base task dies too.
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kDisjoinJob,
                  set_body(9, 0));
  base_done.wait();
  EXPECT_TRUE(base_killed);
}

TEST_F(MomTest, JobUpdateNeedsNoAck) {
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kJoinJob,
                  join_body(10));
  auto ep = cluster_.node(2).open_endpoint();
  rpc::notify(*ep, mom_addr(), MsgType::kJobUpdate, set_body(10, 5));
  // The mom stays healthy: a later call still works.
  (void)rpc::call(cluster_.node(2), mom_addr(), MsgType::kDisjoinJob,
                  set_body(10, 0));
}

TEST_F(MomTest, UnknownRequestTypeErrors) {
  EXPECT_THROW((void)rpc::call(cluster_.node(2), mom_addr(),
                               MsgType::kRunJob, {}),
               rpc::CallError);
}

// The mother superior's side: a compute mom on node 1 fans JOIN_JOB and
// DISJOIN_JOB out to its sisters. Node 0 hosts a stub server that sends the
// mom its requests and records JOB_COMPLETE and the answers to MOM_RUN_JOB
// and MOM_RELEASE; node 2 hosts a stub sister
// that acks every request and counts the DISJOINs it gets. Addresses
// allocated on node 2 but never bound stand in for dead sisters. Job scripts
// are no-ops. Runs on the DiscreteEvent clock, so the bounds are exact
// virtual durations.
class MotherSuperiorTest : public ::testing::Test {
 protected:
  MotherSuperiorTest()
      : cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 3;
          t.network.latency = std::chrono::microseconds(50);
          t.process_start_delay = std::chrono::microseconds(0);
          return t;
        }()),
        runtime_(cluster_) {
    runtime_.register_executable(
        "dac.jobwrapper", [](minimpi::Proc&, const util::Bytes&) {});
    server_ep_ = cluster_.node(0).open_endpoint();
    server_proc_ = cluster_.node(0).spawn(
        {.name = "stub_server"}, [this](vnet::Process& proc) {
          proc.adopt_mailbox(server_ep_->mailbox_weak());
          while (auto msg = server_ep_->recv()) {
            dac::ScopedLock lock(mu_);
            if (msg->type == as_u32(MsgType::kReply)) {
              // The mom's answer to a request send() made.
              util::ByteReader r(msg->payload);
              const auto asked = asked_.find(r.get<std::uint64_t>());
              const bool ok = r.get_enum<ReplyCode>() == ReplyCode::kOk;
              if (asked != asked_.end() && ok) {
                if (asked->second.type == MsgType::kMomRunJob) {
                  started_at_[asked->second.job] = simtime::now();
                } else if (asked->second.type == MsgType::kMomRelease) {
                  release_done_at_ = simtime::now();
                }
              }
              cv_.notify_all();
              continue;
            }
            auto req = rpc::parse_request(*msg);
            util::ByteReader r(req.body);
            if (req.type == MsgType::kRegisterNode) {
              const auto st = get_node_status(r);
              mom_addrs_[st.node_id] = st.mom_addr;
              rpc::reply_ok(*server_ep_, req);
            } else if (req.type == MsgType::kJobComplete) {
              (void)r.get<std::uint64_t>();
              exit_status_ = r.get<std::int32_t>();
              complete_at_ = simtime::now();
            }
            cv_.notify_all();
          }
        });
    sister_ep_ = cluster_.node(2).open_endpoint();
    sister_proc_ = cluster_.node(2).spawn(
        {.name = "stub_sister"}, [this](vnet::Process& proc) {
          proc.adopt_mailbox(sister_ep_->mailbox_weak());
          while (auto msg = sister_ep_->recv()) {
            auto req = rpc::parse_request(*msg);
            if (req.type == MsgType::kDisjoinJob) {
              dac::ScopedLock lock(mu_);
              ++disjoins_;
              cv_.notify_all();
            }
            rpc::reply_ok(*sister_ep_, req);
          }
        });
    start_mom(1);
  }

  // Starts a compute mom on `node` and waits until it registered.
  void start_mom(vnet::NodeId node) {
    MomConfig mc;
    mc.kind = NodeKind::kCompute;
    mc.server = server_ep_->address();
    mc.timing = BatchTiming::fast();
    auto& mom = moms_.emplace_back(std::make_unique<PbsMom>(
        cluster_.node(node), mc, runtime_, tasks_));
    mom_procs_.push_back(cluster_.node(node).spawn(
        {.name = "pbs_mom"},
        [&mom](vnet::Process& proc) { mom->run(proc); }));
    EXPECT_TRUE(await([&] { return mom_addrs_.contains(node); }));
  }

  ~MotherSuperiorTest() override { cluster_.shutdown(); }

  // Waits (in virtual time) until `done` holds under mu_.
  template <typename Pred>
  bool await(Pred done) {
    dac::UniqueLock lock(mu_);
    const auto deadline = simtime::now() + 5s;
    while (!done()) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return done();
      }
    }
    return true;
  }

  HostRef mom_host(const std::string& name, vnet::NodeId node) {
    dac::ScopedLock lock(mu_);
    return {name, node, mom_addrs_.at(node)};
  }
  HostRef ms_host() { return mom_host("cn0", 1); }
  HostRef live_sister() { return {"ac0", 2, sister_ep_->address()}; }
  HostRef dead_sister(const std::string& name) {
    return {name, 2, cluster_.node(2).allocate_address()};
  }
  // A sister on node 2 that spends `cost` on every request before it acks,
  // and counts its DISJOINs like the stub sister.
  HostRef slow_sister(const std::string& name,
                      std::chrono::microseconds cost) {
    auto ep = cluster_.node(2).open_endpoint();
    const HostRef ref{name, 2, ep->address()};
    auto* raw = ep.get();
    slow_eps_.push_back(std::move(ep));
    slow_procs_.push_back(cluster_.node(2).spawn(
        {.name = "slow_sister"}, [this, raw, cost](vnet::Process& proc) {
          proc.adopt_mailbox(raw->mailbox_weak());
          svc::ServiceLoop loop(*raw, svc::ServiceConfig{.name = "slow_sister",
                                                         .service_cost = cost});
          loop.on(MsgType::kJoinJob,
                  [](const svc::Request&, svc::Responder& resp) {
                    resp.ok();
                  });
          loop.on(MsgType::kDisjoinJob,
                  [this](const svc::Request&, svc::Responder& resp) {
                    dac::ScopedLock lock(mu_);
                    ++disjoins_;
                    cv_.notify_all();
                    resp.ok();
                  });
          loop.run();
        }));
    return ref;
  }

  struct Send {
    vnet::Address to;
    MsgType type{};
    util::Bytes body;
  };

  // Sends every message from the stub server's endpoint, so answers come
  // back to it, on a driver process (an actor, so no virtual time passes
  // between the timestamp and the sends), after an optional JOIN_JOB that
  // makes the first addressee a member of the job.
  simtime::TimePoint send(const std::vector<Send>& msgs,
                          std::optional<util::Bytes> join = {}) {
    simtime::TimePoint sent;
    auto driver = cluster_.node(0).spawn(
        {.name = "driver"}, [&](vnet::Process& proc) {
          if (join) {
            (void)svc::Caller(proc, msgs.front().to, svc::RetryPolicy::none())
                .call(MsgType::kJoinJob, *join, {.deadline = 5s});
          }
          sent = simtime::now();
          for (const auto& m : msgs) {
            const auto id = svc::next_request_id();
            util::ByteReader r(m.body);
            {
              dac::ScopedLock lock(mu_);
              asked_[id] = {m.type, m.type == MsgType::kMomRunJob
                                        ? get_job_info(r).id
                                        : r.get<std::uint64_t>()};
            }
            server_ep_->send(m.to, as_u32(m.type), svc::envelope(id, m.body));
          }
        });
    driver->join();
    return sent;
  }

  // Sends `type` with `body` to the mom on node 1.
  simtime::TimePoint send_to_mom(MsgType type, const util::Bytes& body,
                                 std::optional<util::Bytes> join = {}) {
    return send({{ms_host().mom, type, body}}, std::move(join));
  }

  // A MOM_RUN_JOB body for job `id` on `hosts`, computes first.
  static util::Bytes run_body(JobId id, int nodes,
                              const std::vector<HostRef>& hosts) {
    JobInfo job;
    job.id = id;
    job.spec.name = "j";
    job.spec.resources.nodes = nodes;
    util::ByteWriter w;
    put_job_info(w, job);
    put_host_refs(w, hosts);
    return std::move(w).take();
  }

  // PbsMom::sister_call_timeout() under BatchTiming::fast(): a quarter of
  // the heartbeat down-detection window.
  static std::chrono::milliseconds sister_timeout() {
    const auto t = BatchTiming::fast();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               t.mom_heartbeat_interval * t.heartbeat_stale_factor) /
           4;
  }

  dac::testing::ClockModeGuard mode_{simtime::Mode::kDiscreteEvent};
  vnet::Cluster cluster_;
  minimpi::Runtime runtime_;
  TaskRegistry tasks_;
  std::unique_ptr<vnet::Endpoint> server_ep_;
  vnet::ProcessPtr server_proc_;
  std::unique_ptr<vnet::Endpoint> sister_ep_;
  vnet::ProcessPtr sister_proc_;
  std::vector<std::unique_ptr<vnet::Endpoint>> slow_eps_;
  std::vector<vnet::ProcessPtr> slow_procs_;
  std::vector<std::unique_ptr<PbsMom>> moms_;
  std::vector<vnet::ProcessPtr> mom_procs_;

  struct Asked {
    MsgType type{};
    JobId job = 0;
  };

  dac::Mutex mu_{"test.ms_events"};
  dac::CondVar cv_;
  std::map<std::uint64_t, Asked> asked_;  // by request id
  std::map<vnet::NodeId, vnet::Address> mom_addrs_;
  std::map<JobId, simtime::TimePoint> started_at_;
  std::optional<std::int32_t> exit_status_;
  simtime::TimePoint complete_at_;
  std::optional<simtime::TimePoint> release_done_at_;
  int disjoins_ = 0;
};

TEST_F(MotherSuperiorTest, FailedJoinKillsTheJobAndDisjoinsTheAckedSister) {
  // One compute node and two accelerators: one acks the JOIN, one is dead.
  JobInfo job;
  job.id = 5;
  job.spec.name = "j";
  job.spec.resources.nodes = 1;
  job.spec.resources.acpn = 2;
  util::ByteWriter w;
  put_job_info(w, job);
  put_host_refs(w, {ms_host(), live_sister(), dead_sister("ac1")});
  const auto sent = send_to_mom(MsgType::kMomRunJob, std::move(w).take());

  ASSERT_TRUE(await([this] { return exit_status_ && disjoins_ > 0; }));
  dac::ScopedLock lock(mu_);
  EXPECT_EQ(*exit_status_, kExitKilled);
  EXPECT_EQ(disjoins_, 1);
  // The dead sister costs one sister_call_timeout() (the wait rounds up to
  // whole milliseconds), then the completion is one hop to the server.
  EXPECT_GE(complete_at_ - sent, sister_timeout());
  EXPECT_LT(complete_at_ - sent, sister_timeout() + 2ms);
}

TEST_F(MotherSuperiorTest, ReleaseWithTwoDeadSistersTakesOneTimeout) {
  JobInfo job;
  job.id = 6;
  job.spec.name = "j";
  util::ByteWriter join;
  put_job_info(join, job);
  put_host_refs(join, {ms_host()});
  util::ByteWriter release;
  release.put<std::uint64_t>(job.id);
  release.put<std::uint64_t>(3);  // client id of the released set
  put_host_refs(release, {dead_sister("ac1"), dead_sister("ac2")});
  const auto sent = send_to_mom(MsgType::kMomRelease,
                                std::move(release).take(),
                                std::move(join).take());

  ASSERT_TRUE(await([this] { return release_done_at_.has_value(); }));
  dac::ScopedLock lock(mu_);
  // Both dead sisters share the fan-out's one deadline; a sister-by-sister
  // release would take two.
  EXPECT_GE(*release_done_at_ - sent, sister_timeout());
  EXPECT_LT(*release_done_at_ - sent, sister_timeout() + 2ms);
}

TEST_F(MotherSuperiorTest, TwoMotherSuperiorsJoiningEachOtherBothStart) {
  // A second compute mom on node 2. Each mom is the MS of a job whose sister
  // is the other, and both MOM_RUN_JOBs leave at the same virtual instant:
  // each MS's JOIN_JOB reaches a mom that is itself waiting on a JOIN_JOB.
  start_mom(2);
  const auto a = mom_host("cn0", 1);
  const auto b = mom_host("cn1", 2);
  const auto sent =
      send({{a.mom, MsgType::kMomRunJob, run_body(11, 2, {a, b})},
            {b.mom, MsgType::kMomRunJob, run_body(12, 2, {b, a})}});

  ASSERT_TRUE(await([this] { return started_at_.size() == 2; }));
  dac::ScopedLock lock(mu_);
  EXPECT_FALSE(exit_status_.has_value());  // neither start failed
  // One hop to each MS, one JOIN round trip that includes the sister's
  // join cost, one hop to the server; nowhere near a fan-out deadline.
  const auto bound = 4 * 50us + BatchTiming::fast().mom_join_cost + 1ms;
  ASSERT_LT(bound, sister_timeout());
  for (const JobId id : {11u, 12u}) {
    EXPECT_LT(started_at_.at(id) - sent, bound) << "job " << id;
  }
}

TEST_F(MotherSuperiorTest, ReleaseAfterTheJobEndedStillDisjoinsAndAnswers) {
  // A job with one dynamic set on the sister ends (its TASK_DONE) before
  // the server's MOM_RELEASE of that set arrives: the TASK_DONE overtook
  // it. The teardown disjoins the whole job from the sister; the release
  // must still disjoin its set there and answer the server.
  const auto ms = ms_host();
  util::ByteWriter add;
  add.put<std::uint64_t>(14);
  add.put<std::uint64_t>(1);  // dyn id
  add.put<std::uint64_t>(3);  // client id of the set
  put_host_refs(add, {live_sister()});
  util::ByteWriter done;
  done.put<std::uint64_t>(14);
  done.put<std::int32_t>(0);  // rank
  util::ByteWriter release;
  release.put<std::uint64_t>(14);
  release.put<std::uint64_t>(3);
  put_host_refs(release, {live_sister()});
  (void)send({{ms.mom, MsgType::kMomRunJob, run_body(14, 1, {ms})},
              {ms.mom, MsgType::kMomDynAdd, std::move(add).take()},
              {ms.mom, MsgType::kTaskDone, std::move(done).take()},
              {ms.mom, MsgType::kMomRelease, std::move(release).take()}});

  ASSERT_TRUE(await([this] { return release_done_at_.has_value(); }));
  dac::ScopedLock lock(mu_);
  EXPECT_EQ(exit_status_, kExitOk);
  EXPECT_EQ(disjoins_, 2);  // the teardown's, then the release's
}

TEST_F(MotherSuperiorTest, KillRunsAfterTheStartItFollows) {
  // The sister takes 20 ms to ack the JOIN_JOB, so the kill arrives while
  // the start still waits on it. The kill must not overtake the start: once
  // the job launched it is torn down, and the sister is disjoined.
  const auto ms = ms_host();
  util::ByteWriter kill;
  kill.put<std::uint64_t>(13);
  (void)send({{ms.mom, MsgType::kMomRunJob,
               run_body(13, 1, {ms, slow_sister("ac1", 20ms)})},
              {ms.mom, MsgType::kMomKillJob, std::move(kill).take()}});

  ASSERT_TRUE(
      await([this] { return started_at_.contains(13) && disjoins_ > 0; }));
  EXPECT_EQ(tasks_.task_count(13), 0u);
  dac::ScopedLock lock(mu_);
  EXPECT_EQ(disjoins_, 1);
}

}  // namespace
}  // namespace dac::torque

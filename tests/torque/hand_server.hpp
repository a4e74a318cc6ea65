// A pbs_server driven by hand for protocol tests: the test plays scheduler
// (RUN_JOB, RUN_DYN, GET_QUEUE) and mother superior (JOB_COMPLETE,
// MS_RELEASE_DONE). The "moms" are one plain endpoint that swallows what the
// server sends them, so no message lands in a closed mailbox.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/clock_mode.hpp"
#include "simtime/clock.hpp"
#include "torque/ifl.hpp"
#include "torque/server.hpp"
#include "vnet/cluster.hpp"

namespace dac::torque::testing {

inline constexpr auto kHandLatency = std::chrono::microseconds(50);

class HandServer {
 public:
  explicit HandServer(simtime::Mode mode,
                      BatchTiming timing = BatchTiming::fast(),
                      std::shared_ptr<vnet::FaultInjector> faults = nullptr)
      : mode_(mode),
        cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 3;
          t.network.latency = kHandLatency;
          t.process_start_delay = std::chrono::microseconds(0);
          return t;
        }()),
        mom_(cluster_.node(2).open_endpoint()) {
    if (faults) cluster_.fabric().set_fault_injector(std::move(faults));
    timing.server_service_cost = std::chrono::microseconds(0);
    server_ = std::make_unique<PbsServer>(cluster_.node(0), timing);
    server_proc_ = cluster_.node(0).spawn(
        {.name = "pbs_server"},
        [this](vnet::Process& proc) { server_->run(proc); });
    register_node("cn0", NodeKind::kCompute, 8);
  }

  ~HandServer() {
    server_proc_->request_stop();
    server_proc_->join();
  }

  HandServer(const HandServer&) = delete;
  HandServer& operator=(const HandServer&) = delete;

  [[nodiscard]] vnet::Cluster& cluster() { return cluster_; }
  [[nodiscard]] vnet::Endpoint& mom() { return *mom_; }
  [[nodiscard]] const vnet::Address& server() const {
    return server_->address();
  }
  [[nodiscard]] bool virtual_clock() const {
    return simtime::Clock::instance().mode() ==
           simtime::Mode::kDiscreteEvent;
  }

  Ifl client() { return Ifl(cluster_.node(1), server()); }

  void register_node(const std::string& host, NodeKind kind, int np) {
    NodeStatus st;
    st.hostname = host;
    st.node_id = mom_->address().node;
    st.kind = kind;
    st.np = np;
    st.mom_addr = mom_->address();
    util::ByteWriter w;
    put_node_status(w, st);
    (void)rpc::call(cluster_.node(1), server(), MsgType::kRegisterNode,
                    std::move(w).take());
  }

  JobId submit() {
    JobSpec spec;
    spec.name = "hand";
    spec.program = "app";  // non-empty: RUN_JOB leaves it running
    return client().submit(spec);
  }

  // Scheduler-style RUN_JOB onto cn0.
  void run_job(JobId id) {
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put_string_vector({"cn0"});
    w.put_string_vector({});
    (void)rpc::call(cluster_.node(2), server(), MsgType::kRunJob,
                    std::move(w).take());
  }

  // Scheduler-style grant of one dyn request onto `hosts`.
  void grant_dyn(std::uint64_t dyn_id, const std::vector<std::string>& hosts) {
    util::ByteWriter w;
    w.put<std::uint64_t>(dyn_id);
    w.put<std::uint64_t>(0);
    w.put_string_vector(hosts);
    (void)rpc::call(cluster_.node(2), server(), MsgType::kRunDyn,
                    std::move(w).take());
  }

  [[nodiscard]] QueueSnapshot queue() {
    auto reply = rpc::call(cluster_.node(2), server(), MsgType::kGetQueue, {});
    util::ByteReader r(reply);
    return get_queue_snapshot(r);
  }

  // Mother-superior-style notifications.
  void complete_job(JobId id) {
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put<std::int32_t>(kExitOk);
    rpc::notify(*mom_, server(), MsgType::kJobComplete, std::move(w).take());
  }
  void release_done(JobId id, std::uint64_t client_id) {
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put<std::uint64_t>(client_id);
    rpc::notify(*mom_, server(), MsgType::kMsReleaseDone,
                std::move(w).take());
  }

  // Runs `fn` on its own process once the clock reaches `when`.
  vnet::ProcessPtr at(simtime::TimePoint when, std::function<void()> fn) {
    return cluster_.node(2).spawn(
        {.name = "driver"}, [when, fn = std::move(fn)](vnet::Process&) {
          simtime::sleep_until(when);
          fn();
        });
  }

  [[nodiscard]] std::uint64_t calls(MsgType type) const {
    const auto snap = server_->metrics().snapshot();
    const auto* s = snap.find(as_u32(type));
    return s == nullptr ? 0 : s->calls;
  }

 private:
  dac::testing::ClockModeGuard mode_;  // first: everything runs on it
  vnet::Cluster cluster_;
  std::unique_ptr<vnet::Endpoint> mom_;
  std::unique_ptr<PbsServer> server_;
  vnet::ProcessPtr server_proc_;
};

}  // namespace dac::torque::testing

// A pbs_server driven by hand for protocol tests: the test plays scheduler
// (RUN_JOB, DYN_DECIDE, GET_SCHED), mother superior (JOB_COMPLETE, the
// answer to MOM_RELEASE) and elastic agent (ELAST_REGISTER, the answer to
// ELAST_OFFER). The "moms" and the agent are plain endpoints that swallow
// what the server sends them, so no message lands in a closed mailbox; the
// requests a test answers are read back from them. A start the mom never
// answers is only logged by the server, at the call's deadline.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elastic/protocol.hpp"
#include "harness/clock_mode.hpp"
#include "simtime/clock.hpp"
#include "torque/ifl.hpp"
#include "torque/server.hpp"
#include "vnet/cluster.hpp"

namespace dac::torque::testing {

inline constexpr auto kHandLatency = std::chrono::microseconds(50);

// Ships `starts` as one scheduler-style RUN_JOB from `from` and returns the
// server's per-start outcomes, in order.
inline std::vector<bool> run_starts(vnet::Node& from,
                                    const vnet::Address& server,
                                    const std::vector<RunStart>& starts) {
  util::ByteWriter w;
  put_run_starts(w, starts);
  const auto reply =
      rpc::call(from, server, MsgType::kRunJob, std::move(w).take());
  util::ByteReader r(reply);
  std::vector<bool> out(r.get<std::uint32_t>());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = r.get_bool();
  return out;
}

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
        mom_(cluster_.node(2).open_endpoint()),
        agent_(cluster_.node(2).open_endpoint()) {
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

  // Scheduler-style one-start RUN_JOB onto cn0, which must start the job.
  void run_job(JobId id) {
    const auto ok = run_starts(cluster_.node(2), server(),
                               {{.job = id, .compute = {"cn0"}}});
    EXPECT_EQ(ok, std::vector<bool>{true}) << "RUN_JOB refused job " << id;
  }

  // Ships `items` as one scheduler-style DYN_DECIDE and returns the
  // server's per-item outcomes, in order.
  std::vector<bool> decide(const std::vector<DynDecision>& items) {
    util::ByteWriter w;
    put_dyn_decisions(w, items);
    const auto reply = rpc::call(cluster_.node(2), server(),
                                 MsgType::kDynDecide, std::move(w).take());
    util::ByteReader r(reply);
    std::vector<bool> out(r.get<std::uint32_t>());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = r.get_bool();
    return out;
  }

  // Scheduler-style decisions on one dyn request, each shipped as a
  // one-item DYN_DECIDE.
  void grant_dyn(std::uint64_t dyn_id, const std::vector<std::string>& hosts) {
    (void)decide({{.id = dyn_id, .kind = DynDecision::Kind::kGrant,
                   .hosts = hosts}});
  }
  void reject_dyn(std::uint64_t dyn_id) {
    (void)decide({{.id = dyn_id, .kind = DynDecision::Kind::kReject}});
  }

  // Scheduler-style forced-full GET_SCHED: every live job, every node, and
  // the active dyn requests in FIFO order.
  [[nodiscard]] SchedDelta queue() {
    util::ByteWriter w;
    w.put<std::uint64_t>(0);  // epoch
    w.put_bool(true);         // force_full
    auto reply = rpc::call(cluster_.node(2), server(), MsgType::kGetSched,
                           std::move(w).take());
    util::ByteReader r(reply);
    return get_sched_delta(r);
  }

  // Mother-superior-style JOB_COMPLETE notification.
  void complete_job(JobId id) {
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put<std::int32_t>(kExitOk);
    rpc::notify(*mom_, server(), MsgType::kJobComplete, std::move(w).take());
  }
  // Mother-superior-style answer to the MOM_RELEASE of set `client_id`;
  // fails the test when no such release reached the mom.
  void release_done(JobId id, std::uint64_t client_id) {
    const auto req = take(*mom_, [&](const rpc::Request& r) {
      util::ByteReader body(r.body);
      return r.type == MsgType::kMomRelease &&
             body.get<std::uint64_t>() == id &&
             body.get<std::uint64_t>() == client_id;
    });
    if (req) rpc::reply_ok(*mom_, *req);
  }

  // Agent-style ELAST_REGISTER for job `id`, offers to the agent endpoint.
  void register_agent(JobId id, bool can_grow, bool can_shrink,
                      int appetite = 0) {
    elastic::Registration reg;
    reg.job = id;
    reg.agent = agent_->address();
    reg.can_grow = can_grow;
    reg.can_shrink = can_shrink;
    reg.appetite = appetite;
    util::ByteWriter w;
    elastic::put_registration(w, reg);
    (void)rpc::call(cluster_.node(1), server(), MsgType::kElastRegister,
                    std::move(w).take());
  }

  // Scheduler-style elastic proposal in a one-item DYN_DECIDE: a grow of
  // `hosts`, or a shrink of the job's newest set. Fails the test when the
  // server refuses it; returns the offer id the agent received.
  std::uint64_t propose(JobId id, elastic::OfferKind kind,
                        const std::vector<std::string>& hosts = {}) {
    const auto item_kind = kind == elastic::OfferKind::kGrow
                               ? DynDecision::Kind::kGrow
                               : DynDecision::Kind::kShrink;
    const auto outcome = decide({{.id = id, .kind = item_kind, .hosts = hosts}});
    EXPECT_EQ(outcome, std::vector<bool>{true}) << "proposal refused";
    return next_offer().offer_id;
  }

  // The next ELAST_OFFER the agent endpoint received; fails the test when
  // none arrives. The offer stays open until ack() answers it.
  elastic::Offer next_offer() {
    const auto req = take(*agent_, [](const rpc::Request& r) {
      return r.type == MsgType::kElastOffer;
    });
    if (!req) return {};
    util::ByteReader r(req->body);
    auto offer = elastic::get_offer(r);
    offers_[offer.offer_id] = *req;
    return offer;
  }

  // Agent-style answer to offer `offer_id`, read by next_offer(). The
  // server settles nothing with an answer that comes after its deadline.
  void ack(std::uint64_t offer_id, bool accept) {
    const auto it = offers_.find(offer_id);
    ASSERT_NE(it, offers_.end()) << "offer " << offer_id << " never read";
    util::ByteWriter w;
    w.put_bool(accept);
    rpc::reply_ok(*agent_, it->second, std::move(w).take());
    offers_.erase(it);
  }

  // The job's elasticity view in a forced-full GET_SCHED; fails the test
  // when the job has none.
  [[nodiscard]] elastic::JobView view(JobId id) {
    for (const auto& v : queue().elastic) {
      if (v.job == id) return v;
    }
    ADD_FAILURE() << "no elastic view for job " << id;
    return {};
  }

  // Slots in use on `host`, per the server's node table.
  [[nodiscard]] int used(const std::string& host) {
    for (const auto& n : client().stat_nodes()) {
      if (n.hostname == host) return n.used;
    }
    ADD_FAILURE() << "no node " << host;
    return -1;
  }

  // Runs `fn` on its own process once the clock reaches `when`.
  vnet::ProcessPtr at(simtime::TimePoint when, std::function<void()> fn) {
    return cluster_.node(2).spawn(
        {.name = "driver"}, [when, fn = std::move(fn)](vnet::Process&) {
          simtime::sleep_until(when);
          fn();
        });
  }

  // Issues pbs_dynget(1) from its own process at the current instant.
  vnet::ProcessPtr dynget_now(JobId id, std::optional<DynGetReply>& out) {
    return at(simtime::now(),
              [this, id, &out] { out = client().dynget(id, 1); });
  }

  // Lets one millisecond pass, enough for every message in flight to land.
  static void settle() {
    simtime::sleep_until(simtime::now() + std::chrono::milliseconds(1));
  }

  [[nodiscard]] std::uint64_t calls(MsgType type) const {
    const auto snap = server_->metrics().snapshot();
    const auto* s = snap.find(as_u32(type));
    return s == nullptr ? 0 : s->calls;
  }

 private:
  // The first request at `ep` that `match`es, from those read earlier and
  // then the mailbox; the others read on the way are kept for later.
  std::optional<rpc::Request> take(
      vnet::Endpoint& ep,
      const std::function<bool(const rpc::Request&)>& match) {
    auto& seen = unanswered_[&ep];
    if (const auto it = std::find_if(seen.begin(), seen.end(), match);
        it != seen.end()) {
      auto req = *it;
      seen.erase(it);
      return req;
    }
    while (auto msg = ep.recv_for(std::chrono::seconds(5))) {
      auto req = rpc::parse_request(*msg);
      if (match(req)) return req;
      seen.push_back(std::move(req));
    }
    ADD_FAILURE() << "no matching request reached " << ep.address().str();
    return std::nullopt;
  }

  dac::testing::ClockModeGuard mode_;  // first: everything runs on it
  vnet::Cluster cluster_;
  std::unique_ptr<vnet::Endpoint> mom_;
  std::unique_ptr<vnet::Endpoint> agent_;
  std::unique_ptr<PbsServer> server_;
  vnet::ProcessPtr server_proc_;
  std::map<vnet::Endpoint*, std::vector<rpc::Request>> unanswered_;
  std::map<std::uint64_t, rpc::Request> offers_;  // read, not yet answered
};

}  // namespace dac::torque::testing

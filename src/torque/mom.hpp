// The pbs_mom daemon: one per node (compute and accelerator nodes alike).
// Implements the paper's protocols: as mother superior it JOINs the sister
// moms, starts the accelerator daemons and the job script, handles dynamic
// additions (DYNJOIN_JOB) and releases (DISJOIN_JOB), answers the server's
// MOM_RUN_JOB once the job launched and its MOM_RELEASE once the set is
// disjoined, and reports completion. As a sister it tracks membership and
// kills its local tasks when disassociated.
//
// Everything runs on the mom's one service-loop thread. A mother-superior
// protocol (MOM_RUN_JOB, MOM_DYN_ADD, MOM_RELEASE, MOM_KILL_JOB, TASK_DONE)
// runs one at a time, in arrival order: its handler parses the message and
// queues the protocol, which runs at once when the mom is idle and after the
// one in flight otherwise. A protocol's JOIN/DYNJOIN/DISJOIN fan-out never
// blocks the loop: it ends in a continuation once every sister answered or
// the deadline passed, and sister requests, JOB_UPDATE, heartbeats and the
// walltime tick are served meanwhile. So two mother superiors fanning out to
// each other cannot deadlock.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minimpi/runtime.hpp"
#include "svc/caller.hpp"
#include "svc/service_loop.hpp"
#include "torque/batch_config.hpp"
#include "torque/launch_info.hpp"
#include "torque/node_db.hpp"
#include "torque/protocol.hpp"
#include "torque/rpc.hpp"
#include "torque/task_registry.hpp"
#include "trace/trace.hpp"
#include "vnet/node.hpp"

namespace dac::torque {

struct MomConfig {
  NodeKind kind = NodeKind::kCompute;
  int np = 8;  // slots advertised to the server
  vnet::Address server;
  BatchTiming timing;
  // The mother superior kills jobs exceeding their requested walltime.
  bool enforce_walltime = true;
  // Executable names (registered with the MPI runtime by higher layers).
  std::string ac_daemon_exe = "dac.acdaemon";
  std::string job_wrapper_exe = "dac.jobwrapper";
};

class PbsMom {
 public:
  PbsMom(vnet::Node& node, MomConfig config, minimpi::Runtime& runtime,
         TaskRegistry& tasks);

  PbsMom(const PbsMom&) = delete;
  PbsMom& operator=(const PbsMom&) = delete;

  // Daemon loop: registers with the server, then serves until stopped.
  void run(vnet::Process& proc);

 private:
  struct MomJob {
    JobInfo info;
    std::vector<HostRef> hosts;  // every host of the job (computes first)
    bool is_ms = false;
    // Made by a DYNJOIN on a mom outside the job's static hosts: the job is
    // here only through its dynamic sets.
    bool dyn_only = false;
    int tasks_done = 0;
    std::map<std::uint64_t, std::vector<HostRef>> dyn_sets;  // client-id
    // Local start time, for walltime enforcement by the mother superior.
    std::chrono::steady_clock::time_point started;
  };

  // A dynamic accelerator set of a job, as MOM_DYN_ADD and MOM_RELEASE
  // name it (a release carries no dyn id).
  struct DynSet {
    JobId job = 0;
    std::uint64_t dyn = 0;
    std::uint64_t client = 0;
    std::vector<HostRef> hosts;
  };

  void register_handlers(svc::ServiceLoop& loop);

  // Mother-superior duties: each parses its message and queues the protocol.
  // A start and a release answer the server when their protocol ends.
  void on_run_job(const rpc::Request& req, svc::Responder& resp);
  void on_dyn_add(const rpc::Request& req);
  void on_release(const rpc::Request& req, svc::Responder& resp);
  void on_kill_job(const rpc::Request& req);
  void on_task_done(const rpc::Request& req);
  // The rest of a start once the JOIN_JOB fan-out settled: the accelerator
  // daemons and the job script if every sister joined, a kill otherwise;
  // then the answer to MOM_RUN_JOB.
  void launch(MomJob job, std::vector<HostRef> joined,
              const svc::Responder& resp);
  // The rest of a dyn add once the DYNJOIN_JOB fan-out settled.
  void attach_dyn_set(const DynSet& set);
  // The rest of a release once the DISJOIN_JOB fan-out settled.
  void finish_release(const DynSet& set);
  // [job][client], plus the set's hosts when `with_hosts`: the body of
  // DISJOIN_JOB, and with hosts that of DYNJOIN_JOB and JOB_UPDATE.
  static util::Bytes set_body(const DynSet& set, bool with_hosts);
  // Queues `body` under the current trace context; runs it at once when no
  // protocol is in flight.
  void run_protocol(std::function<void()> body);
  // Runs queued protocol steps in order until one fans out or none is
  // left; a step that fails is logged and ends.
  void run_queued();
  // DISJOIN fan-out (notifies, non-blocking) + local task kill for a job
  // this mom was MS of. Takes the membership by value: the caller has
  // already erased the jobs_ entry.
  void teardown_job(JobId id, std::vector<HostRef> hosts, bool kill_tasks);

  // Sister duties.
  void on_join(const rpc::Request& req, svc::Responder& resp);
  void on_dynjoin(const rpc::Request& req, svc::Responder& resp);
  void on_disjoin(const rpc::Request& req, svc::Responder& resp);
  void on_job_update(const rpc::Request& req);

  void apply_join_cost() const;
  void notify_server(MsgType type, util::Bytes body);
  // Deadline for one MS -> sisters fan-out (JOIN, DYNJOIN, DISJOIN), however
  // many sisters it calls: well under the server's down-detection window,
  // so dead sisters cannot hold the queued protocols for long.
  [[nodiscard]] std::chrono::milliseconds sister_call_timeout() const;
  // Sends `type` to every host of `hosts` but this node at once, then
  // returns; `then` runs with the sisters that acked once all have answered
  // or one sister_call_timeout() passed. Logs one warn per sister that
  // failed. The protocol stays in flight until `then` returns without
  // fanning out again.
  void call_sisters(const std::vector<HostRef>& hosts, MsgType type,
                    const util::Bytes& body,
                    std::function<void(std::vector<HostRef>)> then);
  // Kills jobs that exceeded their requested walltime (MS duty); runs on a
  // periodic service-loop tick, so it must never block.
  void enforce_walltime();

  vnet::Node& node_;
  MomConfig config_;
  minimpi::Runtime& runtime_;
  TaskRegistry& tasks_;
  std::unique_ptr<vnet::Endpoint> endpoint_;  // created in run()
  svc::ServiceLoop* loop_ = nullptr;          // set in run()
  std::map<JobId, MomJob> jobs_;
  // MS protocol steps waiting for the one in flight to end.
  std::deque<std::function<void()>> queued_;
  bool fanning_out_ = false;  // a protocol waits on its sister fan-out
};

}  // namespace dac::torque

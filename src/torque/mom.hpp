// The pbs_mom daemon: one per node (compute and accelerator nodes alike).
// Implements the paper's protocols: as mother superior it JOINs the sister
// moms, starts the accelerator daemons and the job script, handles dynamic
// additions (DYNJOIN_JOB) and releases (DISJOIN_JOB), and reports job
// start/completion to the server. As a sister it tracks membership and kills
// its local tasks when disassociated.
#pragma once

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
#include "util/sync.hpp"
#include "vnet/node.hpp"

namespace dac::torque {

struct MomConfig {
  NodeKind kind = NodeKind::kCompute;
  int np = 8;  // slots advertised to the server
  vnet::Address server;
  BatchTiming timing;
  // The mother superior kills jobs exceeding their requested walltime.
  bool enforce_walltime = true;
  // Retry policy for the mom's own calls to the server (registration).
  svc::RetryPolicy retry;
  // Completed request-ids remembered for duplicate suppression.
  std::size_t dedup_window = 256;
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
    int tasks_done = 0;
    std::map<std::uint64_t, std::vector<HostRef>> dyn_sets;  // client-id
    // Local start time, for walltime enforcement by the mother superior.
    std::chrono::steady_clock::time_point started;
  };

  void register_handlers(svc::ServiceLoop& loop, vnet::Process& proc);

  // Mother-superior duties.
  void on_run_job(vnet::Process& proc, const rpc::Request& req);
  void on_dyn_add(vnet::Process& proc, const rpc::Request& req);
  void on_release(vnet::Process& proc, const rpc::Request& req);
  void on_kill_job(vnet::Process& proc, const rpc::Request& req);
  void on_task_done(vnet::Process& proc, const rpc::Request& req);
  // DISJOIN fan-out (notifies, non-blocking) + local task kill for a job
  // this mom was MS of. Takes the membership by value so the caller can
  // erase the jobs_ entry (under mu_) first and fan out without the lock.
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
  // so dead sisters cannot stall this mom's lane long enough for its own
  // heartbeats to go stale.
  [[nodiscard]] std::chrono::milliseconds sister_call_timeout() const;
  // Sends `type` to every host of `hosts` but this node at once and waits
  // for all their answers, up to one sister_call_timeout() in total. Logs
  // one warn per sister that failed; returns the sisters that acked.
  std::vector<HostRef> call_sisters(vnet::Process& proc,
                                    const std::vector<HostRef>& hosts,
                                    MsgType type, const util::Bytes& body);
  // Kills jobs that exceeded their requested walltime (MS duty); runs on a
  // periodic service-loop tick, so it must never block.
  void enforce_walltime();

  vnet::Node& node_;
  MomConfig config_;
  minimpi::Runtime& runtime_;
  TaskRegistry& tasks_;
  std::unique_ptr<vnet::Endpoint> endpoint_;  // created in run()
  // On compute nodes the MS handlers run on the service loop's kConcurrent
  // lane (each JOIN/DYNJOIN/DISJOIN fan-out blocks it for one round trip to
  // all sisters at once), while the loop thread keeps draining the endpoint
  // and serving the non-blocking sister handlers — so two mother superiors
  // granting onto each other's nodes in the same scheduling batch cannot
  // deadlock. The job table is the state the two lanes share; MS handlers
  // must never hold mu_ across a fan-out.
  Mutex mu_{"mom.jobs"};
  std::map<JobId, MomJob> jobs_ DAC_GUARDED_BY(mu_);
};

}  // namespace dac::torque

// What a job program sees when the batch system runs it: one JobContext per
// compute-node rank, giving access to the job's MPI world (across its
// compute nodes), the batch-system client (IFL), and the accelerator session
// (AC_Init / AC_Get / AC_Free / AC_Finalize plus the computation API).
#pragma once

#include <memory>
#include <thread>

#include "elastic/agent.hpp"
#include "minimpi/proc.hpp"
#include "simtime/clock.hpp"
#include "util/error.hpp"
#include "rmlib/ac_session.hpp"
#include "torque/ifl.hpp"
#include "torque/launch_info.hpp"

namespace dac::core {

class JobContext {
 public:
  JobContext(minimpi::Proc& proc, torque::JobLaunchInfo info,
             rmlib::AcSessionConfig session_base)
      : proc_(proc), info_(std::move(info)),
        session_base_(std::move(session_base)),
        ifl_(proc.process(), session_base_.server) {
    session_base_.job = info_.job;
    session_base_.cn_index = proc.rank();
    session_base_.static_count = info_.acpn;
  }

  [[nodiscard]] minimpi::Proc& mpi() { return proc_; }
  [[nodiscard]] const torque::JobLaunchInfo& info() const { return info_; }
  [[nodiscard]] torque::JobId job_id() const { return info_.job; }
  // This process's compute-node index within the job (MPI world rank).
  [[nodiscard]] int rank() const { return proc_.rank(); }
  [[nodiscard]] int num_nodes() const { return proc_.size(); }
  // The job's MPI world across its compute nodes.
  [[nodiscard]] const minimpi::Comm& world() { return proc_.world(); }

  // Batch-system client (pbs_dynget & co. go through the session instead).
  [[nodiscard]] torque::Ifl& ifl() { return ifl_; }

  // The accelerator session; constructed on first use. Call
  // session().ac_init() before offloading.
  [[nodiscard]] rmlib::AcSession& session() {
    if (!session_) {
      session_ = std::make_unique<rmlib::AcSession>(proc_, session_base_);
    }
    return *session_;
  }

  // ---- elastic negotiation (src/elastic) -------------------------------
  // Base configuration for an ElasticAgent of this job: pre-filled with the
  // job id and server address; the caller sets capabilities and wires
  // grow/shrink callbacks before announce(). Typically:
  //
  //   elastic::ElasticAgent agent(ctx.mpi().process(), ctx.elastic_config());
  //   agent.on_shrink([&](const elastic::Reconfig& r) {
  //     ctx.session().ac_detach(r.client_id);
  //   });
  //   agent.announce();
  //   while (working) { compute(); agent.service(); }
  [[nodiscard]] elastic::AgentConfig elastic_config() const {
    elastic::AgentConfig cfg;
    cfg.job = info_.job;
    cfg.server = session_base_.server;
    return cfg;
  }

  // ---- malleability (paper §V generalization) --------------------------
  // "With little extensions to our modified TORQUE resource manager, any
  // malleable application could be supported": grow the job by `count`
  // compute nodes through the same dynamic-request machinery accelerators
  // use. A rejection (granted == false) is a normal outcome.
  struct NodeGrant {
    bool granted = false;
    std::uint64_t client_id = 0;
    std::vector<vnet::NodeId> nodes;
    std::vector<std::string> hosts;
  };
  NodeGrant grow_compute(int count, int min_count = -1) {
    auto reply = ifl_.dynget(job_id(), count,
                             min_count < 0 ? count : min_count,
                             torque::NodeKind::kCompute);
    NodeGrant grant;
    grant.granted = reply.granted;
    grant.client_id = reply.client_id;
    grant.hosts = reply.hosts;
    grant.nodes.assign(reply.host_nodes.begin(), reply.host_nodes.end());
    return grant;
  }
  void release_compute(std::uint64_t client_id) {
    ifl_.dynfree(job_id(), client_id);
  }

  // Spawns `exe` workers on dynamically granted nodes (one rank per node)
  // and returns the intercommunicator; the processes are registered with
  // the job so DISJOIN_JOB can reap them. Collective over `comm`.
  minimpi::Comm spawn_workers(const std::string& exe,
                              const util::Bytes& args,
                              const std::vector<vnet::NodeId>& nodes,
                              const minimpi::Comm& comm, int root = 0,
                              std::uint64_t set_id = 0) {
    minimpi::WorldHandle handle;
    auto inter = proc_.comm_spawn(comm, root, exe, args, nodes,
                                  comm.rank == root ? &handle : nullptr);
    if (comm.rank == root && session_base_.tasks != nullptr) {
      for (std::size_t i = 0; i < handle.processes.size(); ++i) {
        session_base_.tasks->add(job_id(), nodes[i], handle.processes[i],
                                 set_id);
      }
    }
    return inter;
  }

 private:
  minimpi::Proc& proc_;
  torque::JobLaunchInfo info_;
  rmlib::AcSessionConfig session_base_;
  torque::Ifl ifl_;
  std::unique_ptr<rmlib::AcSession> session_;
};

// A job program: the "job script" body run on every compute node of the job.
using JobProgram = std::function<void(JobContext&)>;

// Sleep that honours kills (qdel, walltime enforcement, DISJOIN): plain
// sleep_for cannot be interrupted, so long-running job programs should use
// this (or otherwise poll stop_requested()) to die promptly.
inline void interruptible_sleep(JobContext& ctx,
                                std::chrono::milliseconds duration) {
  const auto deadline = simtime::now() + duration;
  auto& process = ctx.mpi().process();
  while (simtime::now() < deadline) {
    if (process.stop_requested()) throw util::StoppedError();
    simtime::sleep_for(std::min(
        std::chrono::milliseconds(5),
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - simtime::now()) +
            std::chrono::milliseconds(1)));
  }
}

}  // namespace dac::core

// The Interface Library (IFL): the client-side API to the pbs_server. Covers
// the classic surface (submit/stat/delete — qsub/qstat/qdel) plus the
// paper's extensions pbs_dynget() and pbs_dynfree() for dynamic accelerator
// allocation from inside a running job.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "svc/caller.hpp"
#include "torque/job.hpp"
#include "torque/node_db.hpp"
#include "torque/protocol.hpp"
#include "vnet/node.hpp"

namespace dac::torque {

class Ifl {
 public:
  // Client bound to a node (command-line tools, tests).
  Ifl(vnet::Node& node, vnet::Address server);
  // Client bound to a process (job scripts; calls are then killable).
  Ifl(vnet::Process& proc, vnet::Address server);

  [[nodiscard]] const vnet::Address& server() const { return server_; }

  // qsub: returns the job id.
  [[nodiscard]] JobId submit(const JobSpec& spec);
  // qstat.
  std::vector<JobInfo> stat_jobs();
  std::optional<JobInfo> stat_job(JobId id);
  // pbsnodes.
  std::vector<NodeStatus> stat_nodes();
  // qdel.
  void delete_job(JobId id);

  // qalter / pbs_alterjob(): updates attributes of a *queued* job. Only the
  // fields set in `alter` change.
  struct Alter {
    std::optional<int> priority;
    std::optional<std::chrono::milliseconds> walltime;
    std::optional<std::string> name;
  };
  void alter_job(JobId id, const Alter& alter);

  // pbs_dynget(): blocks until the server answers — either a grant with the
  // client-id and host set, or a rejection (granted == false). A rejection
  // is a normal outcome, not an error (paper §II-B).
  //
  // `min_count` enables the partial-allocation extension the paper lists as
  // future work (§VI): the scheduler may grant anywhere in
  // [min_count, count] when the pool cannot satisfy the full request. The
  // default (min_count == count) is the paper's all-or-nothing behaviour.
  //
  // `kind` selects the pool: accelerator nodes (the paper's case) or compute
  // nodes — the malleability generalization of §V ("with little extensions
  // ... any malleable application could be supported").
  [[nodiscard]] DynGetReply dynget(JobId id, int count, int min_count,
                                   NodeKind kind = NodeKind::kAccelerator,
                                   std::chrono::milliseconds timeout =
                                       std::chrono::milliseconds(60'000));
  [[nodiscard]] DynGetReply dynget(JobId id, int count,
                                   std::chrono::milliseconds timeout =
                                       std::chrono::milliseconds(60'000)) {
    return dynget(id, count, count, NodeKind::kAccelerator, timeout);
  }

  // pbs_dynfree(): releases the dynamic set identified by `client_id`.
  void dynfree(JobId id, std::uint64_t client_id);

  // Waits until the job reaches `state` (or a terminal state) and returns
  // its info then; nullopt if `timeout` passes first or the job is unknown.
  // One WAIT_JOB request: the server holds the reply until the transition,
  // so the caller wakes at the transition's instant, not on a poll grid.
  std::optional<JobInfo> wait_for_state(
      JobId id, JobState state,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(30'000));

 private:
  util::Bytes call(MsgType type, util::Bytes body,
                   std::chrono::milliseconds timeout);

  svc::Caller caller_;
  vnet::Address server_;
};

}  // namespace dac::torque

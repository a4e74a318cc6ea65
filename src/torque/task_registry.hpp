// Per-node task table: which processes belong to which job on which node.
// This stands in for the OS process table a real pbs_mom consults when it
// "kills all the tasks running on its host" (paper §III-D, DISJOIN_JOB).
// Populated by whoever launches processes for a job (the mother superior for
// static daemons and job scripts; the resource-management library for
// MPI_Comm_spawn'ed daemons), consumed by moms on DISJOIN / job teardown.
#pragma once

#include <map>
#include <vector>

#include "torque/job.hpp"
#include "util/sync.hpp"
#include "vnet/node.hpp"

namespace dac::torque {

class TaskRegistry {
 public:
  // `set_id` groups tasks belonging to one dynamic allocation (the client
  // id); 0 marks base job tasks (scripts, static daemons).
  void add(JobId job, vnet::NodeId node, vnet::ProcessPtr process,
           std::uint64_t set_id = 0);

  // Cooperatively kills and joins tasks of `job` on `node`. With
  // set_id == 0 every task of the job dies (full DISJOIN); otherwise only
  // the tasks of that dynamic set (set-wise release).
  void kill_node_tasks(JobId job, vnet::NodeId node, std::uint64_t set_id = 0);
  // Kills and joins every task of `job` on every node.
  void kill_job(JobId job);

  // Blocks until every registered task of `job` finished (without killing).
  void join_job(JobId job);

  [[nodiscard]] std::size_t task_count(JobId job) const;

 private:
  struct Task {
    vnet::ProcessPtr process;
    std::uint64_t set_id = 0;
  };
  std::vector<vnet::ProcessPtr> take(JobId job, vnet::NodeId node,
                                     bool all_nodes, std::uint64_t set_id);

  mutable Mutex mu_{"tasks"};
  std::map<std::pair<JobId, vnet::NodeId>, std::vector<Task>> tasks_
      DAC_GUARDED_BY(mu_);
};

}  // namespace dac::torque

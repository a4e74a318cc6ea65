#include "torque/task_registry.hpp"

namespace dac::torque {

void TaskRegistry::add(JobId job, vnet::NodeId node, vnet::ProcessPtr process,
                       std::uint64_t set_id) {
  ScopedLock lock(mu_);
  tasks_[{job, node}].push_back(Task{std::move(process), set_id});
}

std::vector<vnet::ProcessPtr> TaskRegistry::take(JobId job, vnet::NodeId node,
                                                 bool all_nodes,
                                                 std::uint64_t set_id) {
  ScopedLock lock(mu_);
  std::vector<vnet::ProcessPtr> out;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->first.first == job && (all_nodes || it->first.second == node)) {
      auto& tasks = it->second;
      for (auto t = tasks.begin(); t != tasks.end();) {
        if (set_id == 0 || t->set_id == set_id) {
          out.push_back(std::move(t->process));
          t = tasks.erase(t);
        } else {
          ++t;
        }
      }
      it = tasks.empty() ? tasks_.erase(it) : std::next(it);
    } else {
      ++it;
    }
  }
  return out;
}

void TaskRegistry::kill_node_tasks(JobId job, vnet::NodeId node,
                                   std::uint64_t set_id) {
  auto procs = take(job, node, /*all_nodes=*/false, set_id);
  for (auto& p : procs) p->request_stop();
  for (auto& p : procs) p->join();
}

void TaskRegistry::kill_job(JobId job) {
  auto procs = take(job, vnet::kInvalidNode, /*all_nodes=*/true, 0);
  for (auto& p : procs) p->request_stop();
  for (auto& p : procs) p->join();
}

void TaskRegistry::join_job(JobId job) {
  auto procs = take(job, vnet::kInvalidNode, /*all_nodes=*/true, 0);
  for (auto& p : procs) p->join();
}

std::size_t TaskRegistry::task_count(JobId job) const {
  ScopedLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, tasks] : tasks_) {
    if (key.first == job) n += tasks.size();
  }
  return n;
}

}  // namespace dac::torque

#include "maui/queue_mirror.hpp"

#include <utility>

namespace dac::maui {

namespace {

bool terminal(const torque::JobInfo& j) {
  return j.state == torque::JobState::kComplete ||
         j.state == torque::JobState::kCancelled;
}

}  // namespace

bool QueueMirror::apply(const torque::SchedDelta& d) {
  if (d.epoch <= epoch_) return false;  // stale: already covered
  if (!d.full && (needs_full() || d.epoch != epoch_ + 1)) {
    gap_ = true;
    return false;
  }
  if (d.full) {
    jobs_.clear();
    nodes_.clear();
    changed_.clear();
    for (const auto& j : d.jobs) {
      // A full fetch ships only live jobs, but tolerate terminal ones: the
      // fold must not depend on the server filtering.
      if (!terminal(j)) jobs_.insert_or_assign(j.id, j);
    }
  } else {
    for (const auto& j : d.jobs) {
      if (terminal(j)) {
        jobs_.erase(j.id);
      } else {
        jobs_.insert_or_assign(j.id, j);
      }
    }
  }
  for (const auto& j : d.jobs) changed_.insert(j.id);
  for (const auto& n : d.nodes) nodes_.insert_or_assign(n.hostname, n);
  dyn_ = d.dyn;
  elastic_ = d.elastic;
  now_ = d.now;
  epoch_ = d.epoch;
  gap_ = false;
  return true;
}

std::set<torque::JobId> QueueMirror::take_changed() {
  return std::exchange(changed_, {});
}

torque::QueueSnapshot QueueMirror::queue() const {
  torque::QueueSnapshot snap;
  snap.now = now_;
  snap.jobs.reserve(jobs_.size());
  for (const auto& [id, info] : jobs_) snap.jobs.push_back(info);
  snap.dyn = dyn_;
  snap.elastic = elastic_;
  return snap;
}

std::vector<NodeView> QueueMirror::node_views() const {
  std::vector<NodeView> view;
  view.reserve(nodes_.size());
  for (const auto& [host, st] : nodes_) {
    // Only place on kUp nodes: `up` is false for both suspect and down
    // (NodeStatus invariant), so a flapping node is skipped without being
    // reclaimed.
    if (!st.up) continue;
    view.push_back(NodeView{st.hostname, st.kind, st.free_slots()});
  }
  return view;  // map iteration: already ascending by hostname
}

}  // namespace dac::maui

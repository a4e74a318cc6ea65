// The scheduler's local mirror of the server's scheduling state, fed by the
// deltas the server pushes and the kGetSched fetches (torque/sched_feed.hpp).
//
// The contract that makes incremental feeding safe is reconstruction
// equivalence: after apply()ing any prefix of deltas, queue() and
// node_views() must be byte-identical to what a full fetch at the same
// instant would have produced. The server guarantees the inputs (every
// scheduler-visible job/node mutation marks the entity dirty; terminal jobs
// are shipped one last time so the mirror can drop them); the mirror
// guarantees the fold (insert_or_assign semantics, deterministic ordering:
// jobs ascending by id, nodes ascending by hostname — exactly the orders a
// full fetch ships). tests/maui/sched_equivalence_test.cpp pins this
// property over randomized event streams.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "torque/sched_feed.hpp"
#include "torque/server.hpp"

namespace dac::maui {

// Scheduler-local free-slot view, debited as a cycle allocates.
struct NodeView {
  std::string hostname;
  torque::NodeKind kind;
  int free = 0;
};

class QueueMirror {
 public:
  // Folds one delta in, strictly in epoch order; true when it did. A full
  // delta resets the mirror; an incremental delta upserts changed
  // jobs/nodes and erases jobs that arrived in a terminal state. Dynamic
  // requests and elastic views are always shipped complete and replace the
  // previous set wholesale. A delta no newer than epoch() is stale and
  // ignored. An incremental delta that skips an epoch means one was lost:
  // the mirror folds nothing more until a full delta repairs it.
  bool apply(const torque::SchedDelta& d);

  // Epoch of the last applied delta; echo into the next kGetSched.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  // True before the first full delta and after a gap: only a full fetch
  // brings the mirror back.
  [[nodiscard]] bool needs_full() const { return epoch_ == 0 || gap_; }

  // Ids of the jobs the deltas applied since the last call carried (a full
  // delta starts the set afresh): what one fetch over the same span would
  // carry, and so the cycle's re-evaluation cost (docs/SCHEDULING.md).
  [[nodiscard]] std::set<torque::JobId> take_changed();

  // Reconstructed fetch inputs, in full-fetch order.
  [[nodiscard]] torque::QueueSnapshot queue() const;
  [[nodiscard]] std::vector<NodeView> node_views() const;

  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

 private:
  std::uint64_t epoch_ = 0;
  bool gap_ = false;
  double now_ = 0.0;
  std::set<torque::JobId> changed_;
  std::map<torque::JobId, torque::JobInfo> jobs_;
  std::map<std::string, torque::NodeStatus> nodes_;
  std::vector<torque::DynQueueEntry> dyn_;
  std::vector<elastic::JobView> elastic_;
};

}  // namespace dac::maui

// The high-throughput scheduler feed: wire structures and server-side
// bookkeeping for the incremental (delta-driven) Maui cycle and for batched
// dynamic decisions.
//
// A SchedDelta is either *full* (every non-terminal job, every node) or a
// *delta* (only the jobs and nodes whose scheduler-visible state changed
// since the previous one). The server feeds DirtyTracker from its mutation
// handlers and the NodeDb's own dirty set, and pushes each delta to the
// scheduler: in kSchedWake when a cycle can act, and at the end of every
// reply to the scheduler's kRunJob and kDynDecide. kGetSched fetches one,
// full on first contact and for the rescan backstop. The scheduler folds
// deltas, in epoch order, into a QueueMirror (src/maui/queue_mirror.hpp)
// that reconstructs bit-identical fetch inputs — the incremental ≡
// full-rescan contract pinned by tests/maui.
//
// kDynDecide is the scheduler's one dynamic decision message: a batch of
// dynget grants and rejects and elastic grow and shrink proposals, applied
// in order under one server lock acquisition. The scheduler ships a whole
// pass's items at once, or (serial ablation) each item alone
// (docs/SCHEDULING.md). kRunJob is its static twin: one batch of a pass's
// job starts, always shipped whole. Both replies are a u32 count followed by
// one bool per item, in order, then the delta.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "elastic/protocol.hpp"
#include "torque/job.hpp"
#include "torque/node_db.hpp"
#include "util/bytes.hpp"

namespace dac::torque {

// A dynamic request as the scheduler sees it in the queue snapshot.
struct DynQueueEntry {
  std::uint64_t dyn_id = 0;
  JobId job = kInvalidJob;
  int count = 0;      // requested
  int min_count = 0;  // smallest acceptable grant (== count: all-or-nothing)
  NodeKind kind = NodeKind::kAccelerator;  // pool to allocate from
  double arrival = 0.0;  // server seconds; FIFO order for the scheduler
  // Trace context captured at the DYN_GET, so the scheduler's decision span
  // joins the requester's trace (src/trace).
  std::uint64_t trace_id = 0;
  std::uint64_t origin_span = 0;
};

void put_dyn_queue_entry(util::ByteWriter& w, const DynQueueEntry& d);
DynQueueEntry get_dyn_queue_entry(util::ByteReader& r);

// One step of the scheduler feed. Dynamic requests and elastic views are always
// shipped complete — both are bounded by the *active* request/registration
// count, not the queue length — while jobs and nodes are delta'd.
struct SchedDelta {
  // Each delta's epoch is one past the previous one's; echo the last one
  // applied into kGetSched for a delta.
  std::uint64_t epoch = 0;
  bool full = true;
  double now = 0.0;  // server clock, for backfill horizons
  // full: every non-terminal job. delta: every job touched since the last
  // delta, *including* newly-terminal ones so the mirror can drop them.
  std::vector<JobInfo> jobs;
  // full: every node. delta: nodes whose scheduler-visible status changed.
  std::vector<NodeStatus> nodes;
  std::vector<DynQueueEntry> dyn;  // active dynamic requests, FIFO
  std::vector<elastic::JobView> elastic;
};

void put_sched_delta(util::ByteWriter& w, const SchedDelta& d);
SchedDelta get_sched_delta(util::ByteReader& r);

// One item of a kDynDecide batch: a decision on a queued dynget (grant or
// reject), or an elastic proposal for a registered job (grow or shrink). The
// span fields carry the scheduler's decision span (maui.grant_dyn,
// maui.reject_dyn, maui.propose_*), so the server-side application (slot
// assignment, MOM_DYN_ADD, the dynget reply, the ELAST_OFFER) stays inside
// the requester's causal tree. The outcome is true when the server applied
// the item.
struct DynDecision {
  enum class Kind : std::uint8_t { kReject = 0, kGrant, kGrow, kShrink };
  // The dynget's dyn_id for a grant or reject; the job for a proposal.
  std::uint64_t id = 0;
  Kind kind = Kind::kReject;
  std::uint64_t pickup_ns = 0;  // scheduler pickup, for the timing split
  // Grant and grow: the hosts picked, one accelerator slot each. A shrink
  // offers the job's newest set, which the server names.
  std::vector<std::string> hosts;
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
};

void put_dyn_decisions(util::ByteWriter& w,
                       const std::vector<DynDecision>& ds);
std::vector<DynDecision> get_dyn_decisions(util::ByteReader& r);

// One static start inside a kRunJob batch: the hosts Maui picked for a
// queued job. The span fields carry the scheduler's maui.run_job decision
// span, so the server-side application (slot assignment, MOM_RUN_JOB) stays
// inside the job's causal tree. The outcome is true when the server started
// the job.
struct RunStart {
  JobId job = kInvalidJob;
  std::vector<std::string> compute;
  std::vector<std::string> accel;
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
};

void put_run_starts(util::ByteWriter& w, const std::vector<RunStart>& ss);
std::vector<RunStart> get_run_starts(util::ByteReader& r);

// Server-side dirty-job bookkeeping for the incremental feed. Not
// thread-safe: the server mutates it under its state lock. There is one
// consumer (the registered scheduler), so one epoch counter and one dirty
// set suffice: a request whose client epoch matches the tracker's is served
// the accumulated delta; anything else (first contact, a restarted
// scheduler, a forced full rescan) is served the full state. Either way the
// dirty set drains and the epoch advances. A pushed delta asks with the
// tracker's own epoch.
class DirtyTracker {
 public:
  void touch(JobId id) { dirty_.insert(id); }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t pending() const { return dirty_.size(); }

  struct Fetch {
    bool full = true;
    std::uint64_t epoch = 0;       // new epoch to stamp into the reply
    std::vector<JobId> jobs;       // dirty ids (ascending), delta fetches
  };
  Fetch begin_fetch(std::uint64_t client_epoch, bool force_full);

 private:
  std::set<JobId> dirty_;
  std::uint64_t epoch_ = 1;
};

}  // namespace dac::torque

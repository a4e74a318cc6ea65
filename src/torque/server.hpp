// The pbs_server daemon: owns the job table and node database, dispatches
// client (IFL) requests, relays scheduler decisions to mother-superior moms,
// and implements the paper's dynamic-allocation extensions — the DYNQUEUED
// job state, serialized per-job dynamic requests, client-ids for dynamic
// accelerator sets, and the forward-then-reply ordering of §III-D. Every
// change to a running job's dynamic sets, a dynget, a dynfree or an elastic
// offer, is one SetOp record with one attach, one revert and one release
// path (docs/ELASTIC.md).
//
// The server runs on a svc::ServiceLoop. Every request, read or write, runs
// on the loop's single serialized lane — the paper's single-threaded daemon
// and the serialization point its Figure 9 measures — under one state lock
// that also guards the node database.
//
// High-throughput extensions (docs/SCHEDULING.md): job mutations feed a
// DirtyTracker whose deltas the server pushes to the scheduler in
// kSchedWake and in every reply it sends the scheduler, and one kDynDecide
// message applies a whole cycle's dynget decisions and elastic proposals
// under a single lock acquisition.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elastic/protocol.hpp"
#include "svc/metrics.hpp"
#include "svc/service_loop.hpp"
#include "torque/batch_config.hpp"
#include "torque/job.hpp"
#include "torque/node_db.hpp"
#include "torque/protocol.hpp"
#include "torque/rpc.hpp"
#include "torque/sched_feed.hpp"
#include "vnet/node.hpp"

namespace dac::torque {

// Host reference shipped inside MOM_RUN_JOB / MOM_DYN_ADD so moms can reach
// each other and the RM library knows spawn placements.
struct HostRef {
  std::string hostname;
  vnet::NodeId node = vnet::kInvalidNode;
  vnet::Address mom;
};

void put_host_refs(util::ByteWriter& w, const std::vector<HostRef>& hosts);
std::vector<HostRef> get_host_refs(util::ByteReader& r);

// The scheduler's per-cycle view of the queue, as maui::QueueMirror folds
// it from kGetSched deltas (SchedDelta in sched_feed.hpp). The wire form is
// the byte oracle of the incremental ≡ full equivalence suite.
struct QueueSnapshot {
  double now = 0.0;                   // server clock, for backfill horizons
  std::vector<JobInfo> jobs;          // every known job, all states
  std::vector<DynQueueEntry> dyn;     // active dynamic requests, FIFO
  // Elasticity views of registered jobs (src/elastic), for the scheduler's
  // grow/shrink policies.
  std::vector<elastic::JobView> elastic;
};

void put_queue_snapshot(util::ByteWriter& w, const QueueSnapshot& s);
QueueSnapshot get_queue_snapshot(util::ByteReader& r);

class PbsServer {
 public:
  // Opens the server endpoint on `node` immediately so the address is known
  // before any mom or client starts; run() must then be invoked inside a
  // process on that node.
  PbsServer(vnet::Node& node, BatchTiming timing);

  PbsServer(const PbsServer&) = delete;
  PbsServer& operator=(const PbsServer&) = delete;

  [[nodiscard]] const vnet::Address& address() const {
    return endpoint_->address();
  }

  // Per-request metrics recorded by the service loop (counts, errors,
  // latency). Safe to snapshot from any thread while the server runs.
  [[nodiscard]] const svc::MetricsRegistry& metrics() const { return metrics_; }
  // Non-const access so the harness can also route fault-injection event
  // counts (FaultPlan::set_metrics) into the server's registry.
  [[nodiscard]] svc::MetricsRegistry& metrics() { return metrics_; }

  // The daemon loop; returns when the owning process is stopped.
  void run(vnet::Process& proc);

 private:
  // One change to a running job's dynamic sets, the one record behind
  // pbs_dynget, pbs_dynfree and elastic offers (docs/ELASTIC.md, "SetOp
  // lifecycle"). The application starts a grow with a dynget and a shrink
  // with a dynfree; the scheduler starts either with an elastic offer, which
  // the job's agent must accept:
  //
  //   dynget:  kWaiting -> kQueued --grant--> attached, or rejected
  //   offer:   kOffered --accept--> attached (grow) or kReleasing (shrink)
  //                     --nack | deadline | node down--> reverted
  //   release: kReleasing --MOM_RELEASE answered--> done
  //
  // An offer is an ELAST_OFFER call and a release a MOM_RELEASE call; each
  // answer (or its deadline) moves the op on. An op leaves ops_ when it
  // ends, and with its job.
  struct SetOp {
    enum class Stage : std::uint8_t {
      kWaiting,    // dynget held behind the job's queued grow or a release
      kQueued,     // dynget visible to the scheduler
      kOffered,    // offer waiting for the agent's answer
      kReleasing,  // set forwarded to the mother superior for release
    };
    JobId job = kInvalidJob;
    bool grow = true;
    bool by_scheduler = false;  // an elastic offer; else the application
    Stage stage = Stage::kWaiting;
    // Dynget: what the scheduler sees, and the held pbs_dynget reply.
    DynQueueEntry entry;
    svc::Responder responder;
    std::uint64_t arrival_ns = 0;  // steady clock, for the timing split
    // Offer: what the agent was offered. A shrink, offered or released,
    // names its set by client id.
    std::uint64_t offer_id = 0;
    std::uint64_t client_id = 0;
    std::vector<std::string> hosts;   // grow: reserved; shrink: set members
    std::vector<std::int32_t> nodes;  // vnet node ids, same order
  };
  using OpIt = std::list<SetOp>::iterator;

  // A held WAIT_JOB: answered when the job reaches `state` or a terminal
  // state, or with "not reached" when the client's budget runs out.
  struct JobWait {
    JobId job = kInvalidJob;
    JobState state = JobState::kQueued;
    svc::Responder responder;
    svc::ServiceLoop::TimerId timer;  // answers at the client's budget
  };

  struct JobRecord {
    JobInfo info;
    vnet::Address ms;  // mother superior's mom
    bool ms_valid = false;
    std::map<std::uint64_t, std::vector<std::string>> dyn_sets;  // client-id
  };

  void register_handlers(svc::ServiceLoop& loop);

  // IFL / mom-facing handlers. All run with state_mu_ held; the REQUIRES
  // annotations document and (under clang) enforce that.
  void on_submit(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_stat_jobs(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_stat_job(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_stat_nodes(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  // WAIT_JOB: answers at once if the job is already there, else holds the
  // Responder until settle_job_waits or the budget timer answers it.
  void on_wait_job(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  // Ends each mutating handler, notification, call answer and liveness
  // tick, so no path that changes a job's state can skip it: answers the
  // held waits it satisfied, retires the records whose window has passed
  // and sends the scheduler the wake it asked for.
  void end_change() DAC_REQUIRES(state_mu_);
  // Answers every held wait whose job is now where it was awaited.
  void settle_job_waits() DAC_REQUIRES(state_mu_);
  // Moves `rec` to terminal `state` now, and starts its retention window.
  void finish_record(JobId id, JobRecord& rec, JobState state)
      DAC_REQUIRES(state_mu_);
  // Replaces each record whose retention window has passed with its
  // tombstone (docs/PROTOCOLS.md, "Retired jobs"). A held wait never names
  // such a job: its end already answered the wait.
  void retire_jobs() DAC_REQUIRES(state_mu_);
  void on_delete_job(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_alter_job(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_dynget(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_dynfree(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_register_node(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_register_scheduler(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_job_complete(const rpc::Request& req) DAC_REQUIRES(state_mu_);
  void on_heartbeat(const rpc::Request& req) DAC_REQUIRES(state_mu_);

  // Scheduler-facing handlers.
  void on_get_sched(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_run_job(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  void on_dyn_decide(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);

  // Apply one kRunJob start; true when the job started. An unknown or
  // no-longer-queued job, a start without a compute host, or an allocation
  // conflict refuses only this start and rolls back only its slots.
  bool run_apply(const RunStart& start) DAC_REQUIRES(state_mu_);

  // Assigns `ppn` slots on each `compute` host and one on each `accel` host
  // to `job`, all or nothing: on the first conflict it releases what it
  // assigned and returns false. Every allocation the scheduler picked (a
  // start, a grant, a grow's reservation) goes through here.
  bool assign_all(JobId job, const std::vector<std::string>& compute, int ppn,
                  const std::vector<std::string>& accel)
      DAC_REQUIRES(state_mu_);

  // Apply one kDynDecide decision; true when applied. A stale decision (the
  // request or its job vanished) returns false. So does a grant whose
  // allocation raced a concurrent assignment; that request is finished as
  // rejected.
  bool apply_dyn_grant(std::uint64_t dyn_id, std::uint64_t pickup_ns,
                       const std::vector<std::string>& hosts)
      DAC_REQUIRES(state_mu_);
  bool apply_dyn_reject(std::uint64_t dyn_id, std::uint64_t pickup_ns)
      DAC_REQUIRES(state_mu_);
  // Apply one kDynDecide elastic proposal: reserve a grow's hosts or pick a
  // shrink's set, and offer the change to the job's agent. False, with
  // nothing changed, unless the job is registered and running, has no
  // negotiation in flight, allows the change, and has the hosts free (grow)
  // or a dynamic set (shrink).
  bool apply_offer(const DynDecision& item) DAC_REQUIRES(state_mu_);

  // The scheduler's next SchedDelta: full, or the jobs and nodes changed
  // since the last one. Drains both dirty sets and advances the epoch.
  [[nodiscard]] SchedDelta take_delta(std::uint64_t client_epoch,
                                      bool force_full) DAC_REQUIRES(state_mu_);
  // Appends the delta since the last one: the body of a kSchedWake, and the
  // end of every reply to the scheduler, so it never decides on a view
  // older than its own last decisions.
  void put_delta(util::ByteWriter& w) DAC_REQUIRES(state_mu_);
  [[nodiscard]] std::vector<DynQueueEntry> dyn_entries() const
      DAC_REQUIRES(state_mu_);
  [[nodiscard]] std::vector<elastic::JobView> elastic_views() const
      DAC_REQUIRES(state_mu_);

  // Marks `id`'s scheduler-visible state changed since the last delta.
  // Every mutation of a JobRecord's info must route through here or the
  // incremental feed goes stale — the equivalence suite (tests/maui) exists
  // to catch exactly that.
  void touch_job(JobId id) DAC_REQUIRES(state_mu_) { sched_feed_.touch(id); }

  // ---- calls: a start, a release, an offer ------------------------------
  // The server forwards a start or a release to the mother superior and an
  // offer to the job's agent, and acts on the answer (§III-D). A call leaves
  // from the loop's endpoint without blocking the lane. Its answer, or a
  // "deadline" outcome, runs an Answer under the state lock, which then ends
  // like a mutating handler. `key` names what was asked: 0 for a start, the
  // set's client id for a release, the offer id for an offer.
  using Answer = void (PbsServer::*)(JobId job, std::uint64_t key,
                                     const svc::Outcome& answer);
  void call(const vnet::Address& to, MsgType type, const util::Bytes& body,
            std::chrono::milliseconds deadline, Answer then, JobId job,
            std::uint64_t key) DAC_REQUIRES(state_mu_);
  // MOM_RUN_JOB answered: the job launched, or its failed join already
  // completed it as killed. A lost answer is only logged.
  void on_started(JobId job, std::uint64_t key, const svc::Outcome& answer)
      DAC_REQUIRES(state_mu_);
  // MOM_RELEASE answered: frees set `client_id` and lets the job's waiting
  // dyngets go. A lost answer leaves the release in kReleasing until the
  // job ends.
  void on_released(JobId job, std::uint64_t client_id,
                   const svc::Outcome& answer) DAC_REQUIRES(state_mu_);
  // ELAST_OFFER answered: commits offer `offer_id` when its agent accepted,
  // reverts it when the agent declined or stayed silent past
  // elastic_offer_timeout. An offer that already ended (its job did, or a
  // node it names went down) takes no answer.
  void on_offer_answer(JobId job, std::uint64_t offer_id,
                       const svc::Outcome& answer) DAC_REQUIRES(state_mu_);

  // ---- elastic negotiation (src/elastic) -------------------------------
  void on_elast_register(const rpc::Request& req, svc::Responder& resp)
      DAC_REQUIRES(state_mu_);
  // ELAST_RECONFIG: tells the job's agent the committed footprint of
  // accepted offer `op` (grow: the new set's client id).
  void send_reconfig(const SetOp& op, std::uint64_t client_id)
      DAC_REQUIRES(state_mu_);

  // ---- the SetOp table ---------------------------------------------------
  // The queued dynget `dyn_id`, or ops_.end().
  [[nodiscard]] OpIt find_queued(std::uint64_t dyn_id) DAC_REQUIRES(state_mu_);
  // True while `job` has a grow queued for the scheduler or a release in
  // flight. Its next dynget then waits: the paper's server takes one
  // dynamic request at a time per job (§III-D), and a released set's slots
  // are on their way back, so deciding now would reject a request that fits
  // a moment later.
  [[nodiscard]] bool dynget_blocked(JobId job) const DAC_REQUIRES(state_mu_);
  // True while `job` has a scheduler-started op (JobView.offer_pending), so
  // policies do not propose twice.
  [[nodiscard]] bool negotiating(JobId job) const DAC_REQUIRES(state_mu_);
  // Shows dynget `op` to the scheduler, at the back of its FIFO.
  void queue_dynget(OpIt op, JobRecord& rec) DAC_REQUIRES(state_mu_);
  // Hands the scheduler the job's oldest waiting dynget, unless it is still
  // blocked (on_released retries then).
  void queue_next_dynget(JobId job, JobRecord& rec) DAC_REQUIRES(state_mu_);
  // Answers dynget `op`, drops it and queues the job's next one.
  void finish_dynget(OpIt op, const DynGetReply& reply)
      DAC_REQUIRES(state_mu_);
  // Every op leaves the table here, which keeps queued_dyns_ exact.
  OpIt erase_op(OpIt op) DAC_REQUIRES(state_mu_);

  // The one attach of a grow, a granted dynget's or an accepted offer's:
  // `hosts` (already assigned to the job) become a new dynamic set, and the
  // mother superior learns it before the starter is answered (§III-D).
  // `dyn_id` is 0 for an offer. Returns the set's client id.
  std::uint64_t attach_set(JobId job, JobRecord& rec,
                           const std::vector<std::string>& hosts,
                           std::uint64_t dyn_id) DAC_REQUIRES(state_mu_);
  // The one revert of an offer that ends uncommitted (nack, timeout, a node
  // down): frees a grow's reservation, and clears the capability so the
  // policy stops proposing what the job keeps declining until its agent
  // re-registers.
  void revert_offer(const SetOp& op) DAC_REQUIRES(state_mu_);
  // Releases dynamic set `client_id` of `rec` the way on_dynfree does: dead
  // hosts freed directly, the live remainder forwarded to the mother
  // superior. Returns true when forwarded (on_released completes it later),
  // false when the set was freed and erased here.
  bool release_dyn_set(JobId job_id, JobRecord& rec, std::uint64_t client_id)
      DAC_REQUIRES(state_mu_);
  // The one end of a job (complete, qdel, compute node down): frees its
  // slots, grow reservations included, stops using its mother superior
  // (telling it to kill the job when `kill`), rejects its held dyngets and
  // drops its ops and its elastic registration.
  void end_job(JobId id, JobRecord& rec, bool kill) DAC_REQUIRES(state_mu_);

  // Marks a scheduling cycle wanted; flush_wake() sends it.
  void wake_scheduler() DAC_REQUIRES(state_mu_) { wake_wanted_ = true; }
  // Ends every handler and tick. If a cycle was wanted and the scheduler
  // could act (a job queued, a dynget queued or an elastic job
  // registered), pushes the pending delta in one kSchedWake. Otherwise the
  // changes ride in the next delta.
  void flush_wake() DAC_REQUIRES(state_mu_);

  // ---- failure detector + recovery (fault-tolerance extension) ---------
  // Advances the suspect/down detector from the liveness tick.
  void refresh_liveness() DAC_REQUIRES(state_mu_);
  // Recovery entry point once a node is declared down, branching on kind.
  void handle_node_down(const std::string& hostname) DAC_REQUIRES(state_mu_);
  // Compute node died: requeue its jobs (bounded by job_requeue_limit) or
  // fail them, freeing everything they held.
  void fail_jobs_on(const std::string& hostname) DAC_REQUIRES(state_mu_);
  // Accelerator node died: reclaim its slots from every job server-side;
  // the application learns through the DAC frontend and may re-issue dynget.
  void reclaim_accel_slots(const std::string& hostname)
      DAC_REQUIRES(state_mu_);
  // Records a synthetic detector/recovery event in the metrics table.
  void record_event(MsgType ev) { metrics_.record(as_u32(ev), 0.0); }

  [[nodiscard]] double now_s() const;
  [[nodiscard]] std::vector<HostRef> host_refs(
      const std::vector<std::string>& hostnames) const
      DAC_REQUIRES(state_mu_);

  vnet::Node& node_;
  BatchTiming timing_;
  std::unique_ptr<vnet::Endpoint> endpoint_;
  svc::ServiceLoop* loop_ = nullptr;  // set in run(); loop thread only
  std::chrono::steady_clock::time_point start_;
  svc::MetricsRegistry metrics_;

  // Guards all server state below, the node database included. Every
  // handler, tick, timer and call answer takes it on the loop thread.
  Mutex state_mu_{"server.state"};

  NodeDb nodes_ DAC_GUARDED_BY(state_mu_);
  // Every live job, and every terminal one inside its retention window.
  std::map<JobId, JobRecord> jobs_ DAC_GUARDED_BY(state_mu_);
  // Each job end (end_time, id) in order, for retire_jobs. A job qdel'd
  // after it completed is here twice; its later end counts.
  std::deque<std::pair<double, JobId>> ended_ DAC_GUARDED_BY(state_mu_);
  RetiredJobs retired_ DAC_GUARDED_BY(state_mu_);
  // Every open SetOp, in the order each was created or queued: the queued
  // dyngets, read in this order, are the scheduler's FIFO.
  std::list<SetOp> ops_ DAC_GUARDED_BY(state_mu_);
  // Running jobs that opted into elastic offers (kElastRegister).
  std::map<JobId, elastic::Registration> agents_ DAC_GUARDED_BY(state_mu_);
  std::map<std::uint64_t, JobWait> job_waits_ DAC_GUARDED_BY(state_mu_);
  std::uint64_t next_wait_id_ DAC_GUARDED_BY(state_mu_) = 1;
  // Dirty-job bookkeeping for the incremental scheduler feed.
  DirtyTracker sched_feed_ DAC_GUARDED_BY(state_mu_);
  bool wake_wanted_ DAC_GUARDED_BY(state_mu_) = false;
  // Jobs in kQueued and dyngets in kQueued: the scheduler can start or
  // decide one.
  std::size_t queued_jobs_ DAC_GUARDED_BY(state_mu_) = 0;
  std::size_t queued_dyns_ DAC_GUARDED_BY(state_mu_) = 0;

  vnet::Address scheduler_ DAC_GUARDED_BY(state_mu_);
  bool scheduler_known_ DAC_GUARDED_BY(state_mu_) = false;

  JobId next_job_id_ DAC_GUARDED_BY(state_mu_) = 1;
  std::uint64_t next_dyn_id_ DAC_GUARDED_BY(state_mu_) = 1;
  std::uint64_t next_offer_id_ DAC_GUARDED_BY(state_mu_) = 1;
  std::uint64_t next_client_id_ DAC_GUARDED_BY(state_mu_) = 1;
};

}  // namespace dac::torque

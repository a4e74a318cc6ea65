// The Maui-like scheduler daemon. Each cycle works on its mirror of the
// pbs_server's queue and node state, which the server keeps current by
// pushing deltas (docs/SCHEDULING.md). It runs one dynamic decide pass first
// (the paper's basic dynamic-priority mechanism): the elastic policy's grow
// and shrink proposals, then the dynamic requests, FIFO among themselves,
// all shipped in one kDynDecide. Then it schedules static jobs under the
// configured policy: FIFO, multi-factor priority (queue time, QoS,
// fairshare), or EASY backfill with a reservation for the highest-priority
// blocked job.
//
// The cycle structure is what the paper's Figures 8/9 measure: a dynamic
// request arriving while the scheduler is mid-cycle waits for the cycle to
// finish, and concurrent dynamic requests are serviced strictly one at a
// time.
//
// Batched (the default), a cycle does not wait for the server: it sends its
// kDynDecide and kRunJob and ends. Until a batch's reply arrives, every
// later cycle decides as if the batch took effect (its jobs started, its
// dynamic requests decided, its proposals pending, its hosts' slots taken).
// Wakes and replies share one mailbox and fold in arrival order; the reply
// counts the outcomes, folds its delta and retires the assumptions in one
// step. Serial (the paper's shape), a cycle waits for each reply before it
// decides the next item.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elastic/policy.hpp"
#include "maui/queue_mirror.hpp"
#include "simtime/clock.hpp"
#include "svc/call_table.hpp"
#include "torque/batch_config.hpp"
#include "torque/node_db.hpp"
#include "torque/server.hpp"
#include "vnet/node.hpp"

namespace dac::maui {

enum class Policy : std::uint8_t { kFifo = 0, kPriority, kBackfill };

struct PriorityWeights {
  double queue_time = 1.0;   // points per second of queue wait
  double qos = 1000.0;       // multiplier on JobSpec::priority
  double fairshare = 0.0;    // penalty per accumulated node-second of usage
  // Exponential decay half-life of fairshare usage, in seconds.
  double fairshare_halflife = 30.0;
};

struct SchedulerConfig {
  vnet::Address server;
  Policy policy = Policy::kFifo;
  PriorityWeights weights;
  torque::BatchTiming timing;
  // The paper schedules dynamic requests with top priority. Disabling this
  // (ablation A3) appends them after the static queue instead.
  bool dynamic_first = true;
  // Fairness cap for dynamic allocations (paper §VI future work: "better
  // scheduling policies taking fairshare into account"): one owner may hold
  // at most this fraction of the accelerator pool after a grant. 1.0
  // disables the cap (the paper's behaviour).
  double dyn_owner_pool_cap = 1.0;
  // Elastic negotiation policy (src/elastic). Null disables elasticity
  // entirely — no proposals, no deferrals, cycle behaviour identical to the
  // seed scheduler.
  std::shared_ptr<elastic::Policy> elastic_policy;

  // ---- high-throughput scheduling (docs/SCHEDULING.md) ------------------
  // Cycles decide on a local QueueMirror fed by the deltas the server
  // pushes. Every this many cycles one fetches the full state with
  // kGetSched instead (drift backstop; the equivalence tests assert the
  // rescan changes nothing). 1 fetches in full every cycle, the paper's
  // polling shape and the full-fetch ablation. <= 0 never forces a rescan
  // after the first fetch. Decisions are identical either way; only the
  // fetch volume and modeled evaluation cost change.
  int full_rescan_every = 16;
  // Ship all of a cycle's dynamic items (elastic proposals, then grant and
  // reject decisions) in one kDynDecide batch instead of one kDynDecide per
  // item, and do not wait for the server's replies. Decision logic is
  // unchanged; the per-request scheduling cost drops from
  // (base + count*per_node) to per-node only, with the base charged once
  // per batch. Off, the serial ablation, a cycle waits for each reply.
  bool batched_dyn = true;
};

struct SchedulerStatsSnapshot {
  std::uint64_t cycles = 0;
  std::uint64_t jobs_started = 0;
  // Dynamic items count when the server applied them.
  std::uint64_t dyn_granted = 0;
  std::uint64_t dyn_rejected = 0;
  std::uint64_t dyn_capped = 0;  // rejected by the owner pool cap
  std::uint64_t backfilled = 0;
  std::uint64_t elast_proposed = 0;  // grow/shrink proposals accepted
  std::uint64_t refused = 0;  // starts and dynamic items the server refused
};

class MauiScheduler {
 public:
  MauiScheduler(vnet::Node& node, SchedulerConfig config);

  MauiScheduler(const MauiScheduler&) = delete;
  MauiScheduler& operator=(const MauiScheduler&) = delete;

  // Daemon loop: registers with the server, then schedules until stopped.
  void run(vnet::Process& proc);

  [[nodiscard]] SchedulerStatsSnapshot stats() const;

 private:
  // What a kRunJob or kDynDecide batch assumed took effect: the jobs it
  // started on their hosts, the dynamic requests it decided and the
  // proposals it made. Every cycle decides with the batches in flight
  // applied (assume()).
  struct Assumed {
    std::vector<torque::RunStart> starts;
    std::vector<torque::DynDecision> items;
  };
  // Runs once per batch, with what it assumed and the reply or the error
  // ("deadline" when none came).
  using Done = std::function<void(const Assumed&, svc::Outcome)>;

  // One scheduling pass. A cycle started by a wake decides on the deltas
  // folded so far; any other (first contact, the idle poll) fetches first.
  void cycle(vnet::Process& proc);
  // Sends a request from the mailbox, then handles the mailbox until the
  // reply arrives. Throws when the server answered with an error or never
  // did.
  util::Bytes call(torque::MsgType type, const util::Bytes& body);
  // Sends a cycle's batch and assumes it took effect until it is answered;
  // a batch still unanswered at its deadline makes the next cycle fetch in
  // full. Batched, it returns at once; serial, it returns once the reply is
  // folded.
  void ship(torque::MsgType type, const util::Bytes& body, Done done,
            Assumed assumed);
  // Handles every message already in the mailbox.
  void drain();
  // drain(); when nothing was queued, waits until `until` (or the next call
  // due) for a message first. Then fires what fell due in the call table.
  void pump(simtime::TimePoint until);
  // A pushed kSchedWake delta (a wake asks for a cycle), or a reply, which
  // settles its call.
  void handle(const vnet::Message& msg);
  // The cycle's inputs: the mirror with every batch in flight applied. An
  // assumed start is running on its hosts, an assumed decision has left the
  // dyn queue (a grant's hosts join its job), a proposal's job has an offer
  // pending, and each of their hosts' slots is taken. An item whose job or
  // request the mirror no longer holds left before the server saw it: the
  // server will refuse it, and it takes nothing.
  void assume(torque::QueueSnapshot& snap, std::vector<NodeView>& nodes) const;
  // The one dynamic decide pass. Feeds pool pressure and elasticity views
  // to the configured policy and stages its proposals (a grow's hosts are
  // debited from `nodes`; a shrink defers the starved dynamic request it
  // serves instead of rejecting it), then decides the dynamic requests in
  // FIFO order against the same view. Ships every item in kDynDecide. A
  // refused proposal drops the deferral it made and asks for the next cycle
  // at once.
  void decide_dynamic(const torque::QueueSnapshot& snap,
                      std::vector<NodeView>& nodes);
  // `changed`: distinct jobs changed since the last cycle, the
  // prioritization bill.
  void schedule_static(vnet::Process& proc,
                       const torque::QueueSnapshot& snap,
                       std::vector<NodeView>& nodes, std::size_t changed);

  [[nodiscard]] double priority_of(const torque::JobInfo& job,
                                   double now) const;
  // Picks hosts for a (nodes, ppn, acpn) request from the view; empty result
  // means insufficient resources. On success the view is debited.
  struct Allocation {
    std::vector<std::string> compute;
    std::vector<std::string> accel;
    bool ok = false;
  };
  Allocation try_allocate(std::vector<NodeView>& nodes,
                          const torque::ResourceRequest& req) const;
  // Picks `count` free hosts of `kind` (dynamic requests; one slot each).
  std::vector<std::string> try_allocate_dyn(std::vector<NodeView>& nodes,
                                            torque::NodeKind kind,
                                            int count) const;
  void decay_fairshare(double dt_seconds);

  vnet::Node& node_;
  SchedulerConfig config_;

  // Local fold of the server's deltas, pushed and fetched.
  QueueMirror mirror_;
  // The one mailbox, opened by run(): every request leaves from it, and the
  // server's wakes and replies arrive in it, in the order it sent them.
  std::unique_ptr<vnet::Endpoint> ep_;
  // The requests sent from the mailbox and not yet answered.
  std::optional<svc::CallTable> calls_;
  // A wake arrived that no cycle has started on yet.
  bool woken_ = false;
  // A request passed its deadline unanswered: the next cycle fetches in full.
  bool refetch_ = false;
  // What each batch not yet answered assumed, by request id.
  std::map<std::uint64_t, Assumed> assumed_;

  std::map<std::string, double> usage_;  // owner -> node-seconds (decayed)
  double last_decay_s_ = -1.0;

  // Dynamic requests deferred for an in-flight shrink negotiation:
  // dyn_id -> deadline (server seconds). A deferred request is skipped
  // silently — no decision span — until capacity arrives or the window ends.
  std::map<std::uint64_t, double> deferred_;
  // How long a dynamic request may be deferred while a shrink negotiation
  // made on its behalf runs. Past the window the request is decided
  // normally (usually rejected, since the pool is still short).
  static constexpr std::chrono::milliseconds kDeferWindow{5'000};

  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> jobs_started_{0};
  std::atomic<std::uint64_t> dyn_granted_{0};
  std::atomic<std::uint64_t> dyn_rejected_{0};
  std::atomic<std::uint64_t> dyn_capped_{0};
  std::atomic<std::uint64_t> backfilled_{0};
  std::atomic<std::uint64_t> elast_proposed_{0};
  std::atomic<std::uint64_t> refused_{0};
};

}  // namespace dac::maui

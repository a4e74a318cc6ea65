// Pluggable utilization policies driving the elastic negotiation from the
// Maui side. In its one dynamic decide pass the scheduler feeds the policy
// the free pool, the per-job elasticity views and the dynamic-request FIFO;
// the policy answers with proposals, which ride in the pass's kDynDecide
// batch ahead of its dynget decisions, and — for shrink proposals aimed at a
// specific starved dynget — which dynamic request to defer instead of
// rejecting while the negotiation runs.
#pragma once

#include <cstdint>
#include <vector>

#include "elastic/protocol.hpp"
#include "torque/sched_feed.hpp"

namespace dac::elastic {

// The queued dynamic requests, FIFO, as the snapshot ships them. A proposal
// made on a request's behalf joins the request's trace, so the whole
// negotiation shows up in one causal tree.
using DynQueue = std::vector<torque::DynQueueEntry>;

struct PoolPressure {
  int free_accel = 0;    // free accelerator nodes (kUp only)
  int free_compute = 0;  // free compute slots (kUp only)
};

// A change the policy wants for a registered job. A grow asks for `count`
// more accelerators, which the scheduler picks from its view; a shrink
// offers the job's newest dynamic set (sets release LIFO), so its count is
// advisory.
struct Proposal {
  torque::JobId job = torque::kInvalidJob;
  OfferKind kind = OfferKind::kGrow;
  std::int32_t count = 0;
};

// One policy decision: the proposal to send, plus the dynamic request (if
// any) it intends to satisfy — the scheduler defers that request instead of
// rejecting it while the shrink is in flight. An action with
// proposal.count == 0 is defer-only: no proposal is sent, the request just
// waits for capacity a reclaim already in flight will free.
struct Action {
  Proposal proposal;
  std::uint64_t defer_dyn = 0;  // 0 = no request deferred
  std::uint64_t trace_id = 0;   // context for the proposal span
  std::uint64_t origin_span = 0;
};

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual std::vector<Action> evaluate(
      const PoolPressure& pressure, const std::vector<JobView>& jobs,
      const DynQueue& demand) = 0;
};

// Expands jobs with registered appetite while capacity idles and nobody is
// waiting: pre-grants what a dynget would get anyway, saving the round trip.
// Never grows past pending demand — queued dyngets always come first. One
// offer per cycle bounds the negotiation fan-out.
class ExpandIdlePolicy : public Policy {
 public:
  [[nodiscard]] std::vector<Action> evaluate(
      const PoolPressure& pressure, const std::vector<JobView>& jobs,
      const DynQueue& demand) override;
};

// Shrinks an over-provisioned job when a queued dynget starves, i.e. the
// free pool cannot satisfy it: proposes reclaiming the newest dynamic set of
// the first shrinkable job (never the requester itself) and defers the
// starved request while the negotiation runs. While any reclaim is in flight, every other starved request of the
// same kind is deferred too (defer-only actions) — reclaimed capacity is
// coming, so a final reject now would waste it on an empty queue. No
// victim, nack, or timeout all fall back to the normal reject.
class ShrinkUnderPressurePolicy : public Policy {
 public:
  [[nodiscard]] std::vector<Action> evaluate(
      const PoolPressure& pressure, const std::vector<JobView>& jobs,
      const DynQueue& demand) override;
};

// Both of the above: reclaim under pressure, pre-grant when idle.
class BalancedPolicy : public Policy {
 public:
  [[nodiscard]] std::vector<Action> evaluate(
      const PoolPressure& pressure, const std::vector<JobView>& jobs,
      const DynQueue& demand) override;

 private:
  ShrinkUnderPressurePolicy shrink_;
  ExpandIdlePolicy expand_;
};

}  // namespace dac::elastic

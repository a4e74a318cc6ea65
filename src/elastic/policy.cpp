#include "elastic/policy.hpp"

#include <algorithm>

namespace dac::elastic {

std::vector<Action> ExpandIdlePolicy::evaluate(
    const PoolPressure& pressure, const std::vector<JobView>& jobs,
    const DynQueue& demand) {
  // Queued demand outranks speculative growth: whatever is free belongs to
  // the dynget queue first.
  if (!demand.empty()) return {};
  for (const auto& jv : jobs) {  // JobViews arrive sorted by job id
    if (!jv.can_grow || jv.offer_pending || jv.appetite <= 0) continue;
    const int grant = std::min<int>(jv.appetite, pressure.free_accel);
    if (grant <= 0) continue;
    Action a;
    a.proposal.job = jv.job;
    a.proposal.kind = OfferKind::kGrow;
    a.proposal.count = grant;
    return {a};  // one offer per cycle bounds the negotiation fan-out
  }
  return {};
}

std::vector<Action> ShrinkUnderPressurePolicy::evaluate(
    const PoolPressure& pressure, const std::vector<JobView>& jobs,
    const DynQueue& demand) {
  std::vector<Action> out;
  if (demand.empty()) return out;
  // Walk the FIFO the way the scheduler's decide pass will: free capacity
  // serves requests in order (budgeted at their full count — conservative,
  // an unnecessary deferral just costs one skipped cycle); whatever does
  // not fit is starved.
  int avail_accel = pressure.free_accel;
  int avail_compute = pressure.free_compute;
  std::vector<const torque::DynQueueEntry*> starved;
  for (const auto& d : demand) {
    int& avail = d.kind == torque::NodeKind::kAccelerator ? avail_accel
                                                          : avail_compute;
    if (avail >= d.min_count) {
      avail -= std::min(d.count, avail);
    } else {
      starved.push_back(&d);
    }
  }
  if (starved.empty()) return out;  // normal grants will handle the queue
  // Strictly the first starved request drives victim selection: servicing
  // it unblocks the queue, and one new negotiation per cycle keeps the
  // reclaim story deterministic.
  const torque::DynQueueEntry& head = *starved.front();
  // A shrink already in flight (ours, from an earlier cycle) also counts as
  // reclaiming: its freed capacity is coming even if we add no victim now.
  bool reclaiming =
      std::any_of(jobs.begin(), jobs.end(), [](const JobView& jv) {
        return jv.can_shrink && jv.offer_pending;
      });
  for (const auto& jv : jobs) {
    if (!jv.can_shrink || jv.offer_pending || jv.job == head.job ||
        jv.newest_set_size <= 0) {
      continue;
    }
    Action a;
    a.proposal.job = jv.job;
    a.proposal.kind = OfferKind::kShrink;
    a.proposal.count = jv.newest_set_size;
    a.defer_dyn = head.dyn_id;
    a.trace_id = head.trace_id;
    a.origin_span = head.origin_span;
    out.push_back(a);
    reclaiming = true;
    break;  // one victim per cycle
  }
  if (!reclaiming) return out;
  // Defer-only: while reclaimed capacity is on its way, every starved
  // request of the reclaimed kind waits for it instead of being finally
  // rejected against a pool the reclaim is about to refill.
  const bool head_deferred = !out.empty();
  for (const auto* d : starved) {
    if (head_deferred && d->dyn_id == head.dyn_id) continue;
    if (d->kind != head.kind) continue;
    Action defer;
    defer.defer_dyn = d->dyn_id;
    out.push_back(defer);
  }
  return out;
}

std::vector<Action> BalancedPolicy::evaluate(
    const PoolPressure& pressure, const std::vector<JobView>& jobs,
    const DynQueue& demand) {
  auto out = shrink_.evaluate(pressure, jobs, demand);
  auto grow = expand_.evaluate(pressure, jobs, demand);
  out.insert(out.end(), grow.begin(), grow.end());
  return out;
}

}  // namespace dac::elastic

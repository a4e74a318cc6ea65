#include "maui/scheduler.hpp"
#include "simtime/clock.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "svc/deadlines.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::maui {

namespace {
const util::Logger kLog("maui");

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          simtime::now().time_since_epoch())
          .count());
}

double walltime_s(const torque::JobInfo& job) {
  return std::chrono::duration<double>(job.spec.resources.walltime).count();
}

}  // namespace

MauiScheduler::MauiScheduler(vnet::Node& node, SchedulerConfig config)
    : node_(node), config_(std::move(config)) {}

SchedulerStatsSnapshot MauiScheduler::stats() const {
  SchedulerStatsSnapshot s;
  s.cycles = cycles_.load();
  s.jobs_started = jobs_started_.load();
  s.dyn_granted = dyn_granted_.load();
  s.dyn_rejected = dyn_rejected_.load();
  s.dyn_capped = dyn_capped_.load();
  s.backfilled = backfilled_.load();
  s.elast_proposed = elast_proposed_.load();
  s.refused = refused_.load();
  return s;
}

void MauiScheduler::run(vnet::Process& proc) {
  trace::set_thread_actor("maui");
  ep_ = proc.open_endpoint();
  calls_.emplace(*ep_);

  util::ByteWriter reg;
  reg.put<std::int32_t>(ep_->address().node);
  reg.put<std::int32_t>(ep_->address().port);
  try {
    (void)call(torque::MsgType::kRegisterScheduler, reg.bytes());
  } catch (const util::StoppedError&) {
    return;
  }
  kLog.info("maui registered with server, policy {}",
            static_cast<int>(config_.policy));

  while (!proc.stop_requested()) {
    try {
      cycle(proc);
      // A wake that arrived during the cycle asks for the next one at once.
      // Otherwise sleep until a wake or the poll interval, folding replies.
      const auto poll_at =
          simtime::now() + config_.timing.sched_cycle_interval;
      drain();
      while (!woken_ && simtime::now() < poll_at) pump(poll_at);
    } catch (const util::StoppedError&) {
      break;
    } catch (const std::exception& e) {
      kLog.error("scheduling cycle failed: {}", e.what());
    }
  }
  kLog.info("maui shutting down");
}

util::Bytes MauiScheduler::call(torque::MsgType type, const util::Bytes& body) {
  std::optional<svc::Outcome> answer;
  const auto id = calls_->call(
      config_.server, type, body, svc::deadlines::kDefault,
      [this, &answer](svc::Outcome o) {
        if (!o.answered()) refetch_ = true;
        answer = std::move(o);
      });
  try {
    while (!answer) pump(simtime::TimePoint::max());
  } catch (...) {
    calls_->cancel(id);  // its continuation refers to this frame
    throw;
  }
  if (!answer->ok()) {
    throw util::ProtocolError(svc::msg_type_name(torque::as_u32(type)) +
                              ": " + answer->error);
  }
  return std::move(*answer->reply);
}

void MauiScheduler::ship(torque::MsgType type, const util::Bytes& body,
                         Done done, Assumed assumed) {
  const auto id = calls_->call(
      config_.server, type, body, svc::deadlines::kDefault,
      [this, done = std::move(done)](svc::Outcome answer) {
        const auto batch = assumed_.extract(answer.id);
        // The server may have applied an unanswered request or not: drop
        // what it assumed, and let a full fetch say.
        if (!answer.answered()) refetch_ = true;
        done(batch.mapped(), std::move(answer));
      });
  assumed_.emplace(id, std::move(assumed));
  if (config_.batched_dyn) return;
  while (assumed_.contains(id)) pump(simtime::TimePoint::max());
}

void MauiScheduler::drain() {
  while (auto msg = ep_->try_recv()) handle(*msg);
}

void MauiScheduler::pump(simtime::TimePoint until) {
  const auto wake_at =
      std::min(until, calls_->next_due().value_or(simtime::TimePoint::max()));
  auto msg = ep_->try_recv();
  if (const auto now = simtime::now(); !msg && wake_at > now) {
    msg = wake_at == simtime::TimePoint::max()
              ? ep_->recv()
              : ep_->recv_for(std::max(
                    std::chrono::ceil<std::chrono::milliseconds>(wake_at - now),
                    std::chrono::milliseconds(1)));
    if (!msg && ep_->closed()) throw util::StoppedError();
  }
  if (msg) {
    handle(*msg);
    drain();
  }
  calls_->fire_due();
}

void MauiScheduler::handle(const vnet::Message& msg) {
  if (calls_->settle(msg)) return;
  if (msg.type != torque::as_u32(torque::MsgType::kSchedWake)) return;
  woken_ = true;
  const auto req = svc::parse_request(msg);
  util::ByteReader r(req.body);
  (void)mirror_.apply(torque::get_sched_delta(r));
}

void MauiScheduler::cycle(vnet::Process& proc) {
  const auto cycle_no = cycles_.fetch_add(1, std::memory_order_relaxed);
  drain();
  // A cycle started by a wake decides on the deltas folded so far. Any
  // other (first contact, the idle poll) fetches first.
  const bool poll = !std::exchange(woken_, false);

  // A full rescan on first contact, after a lost delta or an expired batch
  // and every full_rescan_every cycles; a delta fetch at the idle poll. The
  // reconstruction is byte-identical either way (queue_mirror.hpp).
  const bool force_full =
      std::exchange(refetch_, false) || mirror_.needs_full() ||
      (config_.full_rescan_every > 0 &&
       cycle_no % static_cast<std::uint64_t>(config_.full_rescan_every) == 0);
  if (poll || force_full) {
    // The fetch must not see a batch the overlay still assumes: wait for
    // every reply first.
    while (!assumed_.empty()) pump(simtime::TimePoint::max());
    util::ByteWriter w;
    w.put<std::uint64_t>(mirror_.epoch());
    w.put_bool(force_full);
    const auto reply = call(torque::MsgType::kGetSched, w.bytes());
    util::ByteReader r(reply);
    (void)mirror_.apply(torque::get_sched_delta(r));
  }
  const auto changed = mirror_.take_changed().size();
  auto snap = mirror_.queue();
  auto view = mirror_.node_views();
  assume(snap, view);

  decay_fairshare(snap.now);

  if (config_.dynamic_first) decide_dynamic(snap, view);
  schedule_static(proc, snap, view, changed);
  if (!config_.dynamic_first) decide_dynamic(snap, view);
}

void MauiScheduler::assume(torque::QueueSnapshot& snap,
                           std::vector<NodeView>& nodes) const {
  using Kind = torque::DynDecision::Kind;
  // Jobs come ascending by id and nodes by hostname (queue_mirror.hpp).
  const auto job = [&](torque::JobId id) -> torque::JobInfo* {
    const auto it = std::lower_bound(
        snap.jobs.begin(), snap.jobs.end(), id,
        [](const torque::JobInfo& j, torque::JobId v) { return j.id < v; });
    return it != snap.jobs.end() && it->id == id ? &*it : nullptr;
  };
  const auto take = [&](const std::vector<std::string>& hosts, int slots) {
    for (const auto& host : hosts) {
      const auto n = std::lower_bound(
          nodes.begin(), nodes.end(), host,
          [](const NodeView& v, const std::string& h) { return v.hostname < h; });
      if (n != nodes.end() && n->hostname == host) n->free -= slots;
    }
  };
  for (const auto& [id, batch] : assumed_) {
    for (const auto& start : batch.starts) {
      auto* j = job(start.job);
      if (j == nullptr || j->state != torque::JobState::kQueued) continue;
      j->state = torque::JobState::kRunning;
      j->compute_hosts = start.compute;
      j->accel_hosts = start.accel;
      take(start.compute, j->spec.resources.ppn);
      take(start.accel, 1);
    }
    for (const auto& item : batch.items) {
      if (item.kind == Kind::kGrow || item.kind == Kind::kShrink) {
        const auto v = std::find_if(
            snap.elastic.begin(), snap.elastic.end(),
            [&](const elastic::JobView& e) { return e.job == item.id; });
        if (v == snap.elastic.end()) continue;
        v->offer_pending = true;
        take(item.hosts, 1);
        continue;
      }
      const auto d = std::find_if(
          snap.dyn.begin(), snap.dyn.end(),
          [&](const torque::DynQueueEntry& e) { return e.dyn_id == item.id; });
      if (d == snap.dyn.end()) continue;
      if (auto* j = job(d->job); j != nullptr && item.kind == Kind::kGrant) {
        j->dyn_accel_hosts.insert(j->dyn_accel_hosts.end(),
                                  item.hosts.begin(), item.hosts.end());
      }
      if (item.kind == Kind::kGrant) take(item.hosts, 1);
      snap.dyn.erase(d);
    }
  }
}

void MauiScheduler::decide_dynamic(const torque::QueueSnapshot& snap,
                                   std::vector<NodeView>& nodes) {
  using Kind = torque::DynDecision::Kind;

  // Every item the pass decides, an elastic proposal or a dynget grant or
  // reject, is staged inside its decision span. Batched, the items ship as
  // one kDynDecide after the pass and the per-request base cost is charged
  // once for the whole batch; serial, each ships alone inside its span and
  // pays the base cost itself. The server applies them in order and answers
  // one outcome per item; only applied items count.
  struct Staged {
    bool capped = false;         // a reject by the owner pool cap
    std::uint64_t deferred = 0;  // the deferral a proposal made
  };
  std::vector<torque::DynDecision> batch;
  std::vector<Staged> staged;
  // The reply's outcomes count, and a refused proposal's deferral drops,
  // when the reply is folded.
  const auto settle_batch = [this](const std::vector<Staged>& staged,
                                   const Assumed& assumed,
                                   svc::Outcome answer) {
    const auto& items = assumed.items;
    std::vector<bool> applied(items.size(), false);
    if (!answer.ok()) {
      kLog.warn("dyn decision batch ({} item(s)) not applied: {}",
                items.size(), answer.error);
    } else {
      util::ByteReader r(*answer.reply);
      const auto n = r.get<std::uint32_t>();
      for (std::size_t i = 0; i < n; ++i) applied.at(i) = r.get_bool();
      (void)mirror_.apply(torque::get_sched_delta(r));
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto kind = items[i].kind;
      const bool proposal = kind == Kind::kGrow || kind == Kind::kShrink;
      if (applied[i]) {
        auto& counter = proposal             ? elast_proposed_
                        : kind == Kind::kGrant ? dyn_granted_
                                               : dyn_rejected_;
        counter.fetch_add(1, std::memory_order_relaxed);
        if (staged[i].capped) {
          dyn_capped_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      refused_.fetch_add(1, std::memory_order_relaxed);
      if (proposal) {
        // The request it deferred is decided in the next cycle, at once.
        kLog.warn("elastic proposal for job {} refused by the server",
                  items[i].id);
        if (staged[i].deferred != 0) deferred_.erase(staged[i].deferred);
        woken_ = true;
      }
    }
  };
  const auto ship_batch = [&] {
    if (batch.empty()) return;
    util::ByteWriter w;
    torque::put_dyn_decisions(w, batch);
    ship(torque::MsgType::kDynDecide, w.bytes(),
         [settle_batch, staged = std::exchange(staged, {})](
             const Assumed& assumed, svc::Outcome answer) {
           settle_batch(staged, assumed, std::move(answer));
         },
         {.items = std::exchange(batch, {})});
  };
  const auto stage = [&](torque::DynDecision item, Staged info,
                         const trace::SpanScope& span) {
    // Ship the decision span's identity so the server-side application runs
    // as its child, whichever batch the item rides in.
    const auto ctx = span.context();
    item.trace_id = ctx.trace;
    item.span = ctx.span;
    batch.push_back(std::move(item));
    staged.push_back(info);
    if (!config_.batched_dyn) ship_batch();
  };

  if (config_.elastic_policy) {
    // Drop deferrals whose request left the queue (granted, rejected, or
    // the job died) so the map cannot grow without bound.
    std::erase_if(deferred_, [&](const auto& kv) {
      return std::none_of(
          snap.dyn.begin(), snap.dyn.end(),
          [&](const torque::DynQueueEntry& d) { return d.dyn_id == kv.first; });
    });
    elastic::PoolPressure pressure;
    for (const auto& n : nodes) {
      if (n.free < 1) continue;
      if (n.kind == torque::NodeKind::kAccelerator) {
        ++pressure.free_accel;
      } else {
        ++pressure.free_compute;
      }
    }
    const double defer_until =
        snap.now + std::chrono::duration<double>(kDeferWindow).count();
    for (const auto& a :
         config_.elastic_policy->evaluate(pressure, snap.elastic, snap.dyn)) {
      // try_emplace: a deferral window starts at the request's first
      // deferral and is never refreshed — re-deferring every cycle must not
      // extend it. A defer-only action (count 0) waits for a reclaim
      // already in flight: no proposal, no span (deferral is silent).
      const bool deferred =
          a.defer_dyn != 0 &&
          deferred_.try_emplace(a.defer_dyn, defer_until).second;
      if (a.proposal.count <= 0) continue;
      const bool grow = a.proposal.kind == elastic::OfferKind::kGrow;
      torque::DynDecision item{.id = a.proposal.job,
                               .kind = grow ? Kind::kGrow : Kind::kShrink};
      // A grow's hosts come from this pass's view, like a grant's, so no
      // grant or static start later in the pass lands on them.
      if (grow) {
        item.hosts = try_allocate_dyn(nodes, torque::NodeKind::kAccelerator,
                                      a.proposal.count);
        if (item.hosts.empty()) continue;
      }
      // A shrink made on a starved request's behalf joins that request's
      // trace, so the whole negotiation is one causal tree from the dynget.
      trace::SpanScope span(grow ? "maui.propose_grow" : "maui.propose_shrink",
                            trace::Context{a.trace_id, a.origin_span});
      span.note("job", std::to_string(a.proposal.job));
      span.note("count", std::to_string(a.proposal.count));
      stage(std::move(item), {.deferred = deferred ? a.defer_dyn : 0}, span);
    }
  }

  // Fairshare cap inputs: the accelerator pool size and each owner's
  // current accelerator holdings (static + dynamic), from the snapshot.
  int pool = 0;
  for (const auto& n : nodes) {
    if (n.kind == torque::NodeKind::kAccelerator) ++pool;
  }
  std::map<std::string, int> holdings;
  std::map<torque::JobId, const torque::JobInfo*> job_by_id;
  for (const auto& j : snap.jobs) {
    job_by_id[j.id] = &j;
    if (j.state == torque::JobState::kRunning ||
        j.state == torque::JobState::kDynQueued) {
      holdings[j.spec.owner] += static_cast<int>(j.accel_hosts.size()) +
                                static_cast<int>(j.dyn_accel_hosts.size());
    }
  }

  // Strictly FIFO, one at a time — the serialization the paper's Figure 9
  // observes across concurrent requesters. Decisions are made one at a time
  // against the same shared view either way.
  bool batch_base_charged = false;
  for (const auto& d : snap.dyn) {
    // A request deferred for an in-flight shrink negotiation is skipped
    // silently (a reject is final, a deferral is not): no decision span, no
    // simulated decision cost. It is serviced the moment freed capacity can
    // satisfy it, or decided normally once the window expires.
    if (const auto dit = deferred_.find(d.dyn_id); dit != deferred_.end()) {
      if (snap.now < dit->second) {
        int free = 0;
        for (const auto& n : nodes) {
          if (n.kind == d.kind && n.free >= 1) ++free;
        }
        if (free < d.min_count) continue;
      }
      deferred_.erase(dit);
    }
    const auto pickup = steady_ns();
    if (config_.batched_dyn) {
      if (!batch_base_charged &&
          config_.timing.sched_dyn_base_cost.count() > 0) {
        simtime::sleep_for(config_.timing.sched_dyn_base_cost);
      }
      batch_base_charged = true;
      const auto work = d.count * config_.timing.sched_per_node_cost;
      if (work.count() > 0) simtime::sleep_for(work);
    } else {
      const auto work = config_.timing.sched_dyn_base_cost +
                        d.count * config_.timing.sched_per_node_cost;
      if (work.count() > 0) simtime::sleep_for(work);
    }

    // Fairshare cap: reject a grant that would push one owner above its
    // share of the accelerator pool (the paper's future-work fairness
    // policy; only applied to accelerator requests).
    bool capped = false;
    if (config_.dyn_owner_pool_cap < 1.0 &&
        d.kind == torque::NodeKind::kAccelerator) {
      if (auto it = job_by_id.find(d.job); it != job_by_id.end()) {
        const auto& owner = it->second->spec.owner;
        const double after = holdings[owner] + d.min_count;
        if (after > config_.dyn_owner_pool_cap * pool) capped = true;
      }
    }
    // Try the full request; if the pool is short but the requester accepts
    // fewer (min_count < count), grant what is available — the partial
    // allocation extension (paper future work, §VI).
    // Compute-node grants (malleability) must hand out nodes the job does
    // not already occupy; temporarily hide its own hosts from the view.
    std::vector<NodeView> filtered;
    std::vector<NodeView>* pool_view = &nodes;
    if (d.kind == torque::NodeKind::kCompute) {
      const auto it = job_by_id.find(d.job);
      filtered.reserve(nodes.size());
      for (const auto& n : nodes) {
        const bool held =
            it != job_by_id.end() &&
            (std::find(it->second->compute_hosts.begin(),
                       it->second->compute_hosts.end(),
                       n.hostname) != it->second->compute_hosts.end() ||
             std::find(it->second->dyn_accel_hosts.begin(),
                       it->second->dyn_accel_hosts.end(),
                       n.hostname) != it->second->dyn_accel_hosts.end());
        if (!held) filtered.push_back(n);
      }
      pool_view = &filtered;
    }

    auto hosts = capped ? std::vector<std::string>{}
                        : try_allocate_dyn(*pool_view, d.kind, d.count);
    if (hosts.empty() && !capped && d.min_count < d.count) {
      int free = 0;
      for (const auto& n : *pool_view) {
        if (n.kind == d.kind && n.free >= 1) ++free;
      }
      if (free >= d.min_count) {
        hosts = try_allocate_dyn(*pool_view, d.kind, free);
      }
    }
    const bool grant = static_cast<int>(hosts.size()) >= d.min_count;
    if (grant && pool_view == &filtered) {
      // The debit landed on the per-request filtered copy; mirror it into
      // the shared view, or every later request in this cycle re-sees the
      // same free slots and its grant dies as an allocation conflict at the
      // server.
      for (const auto& h : hosts) {
        const auto it = std::find_if(
            nodes.begin(), nodes.end(),
            [&](const NodeView& n) { return n.hostname == h; });
        if (it != nodes.end()) it->free -= 1;
      }
    }
    // The decision span joins the requester's trace (context shipped in the
    // queue snapshot), so one trace covers dynget -> decision -> attach.
    trace::SpanScope span(grant ? "maui.grant_dyn" : "maui.reject_dyn",
                          trace::Context{d.trace_id, d.origin_span});
    span.note("dyn", std::to_string(d.dyn_id));
    span.note("job", std::to_string(d.job));
    if (capped) span.note("capped", "1");
    if (grant) span.note("hosts", std::to_string(hosts.size()));

    if (auto it = job_by_id.find(d.job); grant && it != job_by_id.end()) {
      holdings[it->second->spec.owner] += static_cast<int>(hosts.size());
    }
    torque::DynDecision dec{.id = d.dyn_id,
                            .kind = grant ? Kind::kGrant : Kind::kReject,
                            .pickup_ns = pickup};
    if (grant) dec.hosts = std::move(hosts);
    stage(std::move(dec), {.capped = capped}, span);
  }
  ship_batch();
}

double MauiScheduler::priority_of(const torque::JobInfo& job,
                                  double now) const {
  const auto& w = config_.weights;
  double p = w.qos * job.spec.priority +
             w.queue_time * std::max(0.0, now - job.submit_time);
  if (w.fairshare > 0.0) {
    if (auto it = usage_.find(job.spec.owner); it != usage_.end()) {
      p -= w.fairshare * it->second;
    }
  }
  return p;
}

void MauiScheduler::decay_fairshare(double now) {
  if (last_decay_s_ < 0.0) {
    last_decay_s_ = now;
    return;
  }
  const double dt = now - last_decay_s_;
  last_decay_s_ = now;
  if (dt <= 0.0 || config_.weights.fairshare_halflife <= 0.0) return;
  const double factor =
      std::exp2(-dt / config_.weights.fairshare_halflife);
  for (auto& [owner, usage] : usage_) usage *= factor;
}

MauiScheduler::Allocation MauiScheduler::try_allocate(
    std::vector<NodeView>& nodes, const torque::ResourceRequest& req) const {
  Allocation alloc;
  std::vector<std::size_t> compute_idx;
  std::vector<std::size_t> accel_idx;
  for (std::size_t i = 0;
       i < nodes.size() &&
       (static_cast<int>(compute_idx.size()) < req.nodes ||
        static_cast<int>(accel_idx.size()) < req.total_accelerators());
       ++i) {
    const auto& n = nodes[i];
    if (n.kind == torque::NodeKind::kCompute &&
        static_cast<int>(compute_idx.size()) < req.nodes &&
        n.free >= req.ppn) {
      compute_idx.push_back(i);
    } else if (n.kind == torque::NodeKind::kAccelerator &&
               static_cast<int>(accel_idx.size()) <
                   req.total_accelerators() &&
               n.free >= 1) {
      accel_idx.push_back(i);
    }
  }
  if (static_cast<int>(compute_idx.size()) < req.nodes ||
      static_cast<int>(accel_idx.size()) < req.total_accelerators()) {
    return alloc;  // not ok
  }
  for (auto i : compute_idx) {
    nodes[i].free -= req.ppn;
    alloc.compute.push_back(nodes[i].hostname);
  }
  for (auto i : accel_idx) {
    DAC_CHECK(nodes[i].free >= 0, "accelerator {} oversubscribed (free={})",
              nodes[i].hostname, nodes[i].free);
    nodes[i].free -= 1;
    alloc.accel.push_back(nodes[i].hostname);
  }
  // No AC double-assignment: each accelerator host appears at most once in
  // the grant.
  DAC_DCHECK(std::set<std::string>(alloc.accel.begin(), alloc.accel.end())
                     .size() == alloc.accel.size(),
             "duplicate accelerator host in allocation");
  alloc.ok = true;
  return alloc;
}

std::vector<std::string> MauiScheduler::try_allocate_dyn(
    std::vector<NodeView>& nodes, torque::NodeKind kind, int count) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0;
       i < nodes.size() && static_cast<int>(idx.size()) < count; ++i) {
    if (nodes[i].kind == kind && nodes[i].free >= 1) {
      idx.push_back(i);
    }
  }
  if (static_cast<int>(idx.size()) < count) return {};
  std::vector<std::string> hosts;
  for (auto i : idx) {
    nodes[i].free -= 1;
    hosts.push_back(nodes[i].hostname);
  }
  // Dynamic grants come from distinct free nodes — the scheduler must never
  // hand the same accelerator to one request twice.
  DAC_DCHECK(
      std::set<std::string>(hosts.begin(), hosts.end()).size() == hosts.size(),
      "duplicate host in dynamic grant");
  return hosts;
}

void MauiScheduler::schedule_static(vnet::Process& proc,
                                    const torque::QueueSnapshot& snap,
                                    std::vector<NodeView>& nodes,
                                    std::size_t changed) {
  std::vector<const torque::JobInfo*> queued;
  std::vector<const torque::JobInfo*> running;
  for (const auto& j : snap.jobs) {
    if (j.state == torque::JobState::kQueued) queued.push_back(&j);
    if (j.state == torque::JobState::kRunning ||
        j.state == torque::JobState::kDynQueued) {
      running.push_back(&j);
    }
  }
  if (queued.empty()) return;

  // Prioritization phase: Maui evaluates every queued job each cycle (this
  // per-job cost is what delays a mid-cycle dynamic request — Figure 8).
  // Delta cycles re-evaluate only the distinct jobs changed since the last
  // cycle and use cached priorities for the rest, so the modeled cost is
  // what one fetch over that span would carry; a full fetch touches every
  // live job, so it evaluates the whole queue. The decisions themselves are
  // unchanged (same sort, same allocation attempts).
  if (config_.timing.sched_job_eval_cost.count() > 0) {
    const auto evaluated = std::min(queued.size(), changed);
    if (evaluated > 0) {
      simtime::sleep_for(evaluated * config_.timing.sched_job_eval_cost);
    }
  }

  switch (config_.policy) {
    case Policy::kFifo:
      std::sort(queued.begin(), queued.end(),
                [](const torque::JobInfo* a, const torque::JobInfo* b) {
                  return a->submit_time != b->submit_time
                             ? a->submit_time < b->submit_time
                             : a->id < b->id;
                });
      break;
    case Policy::kPriority:
    case Policy::kBackfill:
      std::sort(queued.begin(), queued.end(),
                [&](const torque::JobInfo* a, const torque::JobInfo* b) {
                  const double pa = priority_of(*a, snap.now);
                  const double pb = priority_of(*b, snap.now);
                  return pa != pb ? pa > pb : a->id < b->id;
                });
      break;
  }

  // Starts are staged as they are decided and ship as one kRunJob after the
  // pass, so a pass sends one message however many jobs it starts. Each
  // start's decision span joins the trace recorded at submission: the
  // decision is part of the job's causal story, not of the GetSched poll
  // that revealed it. Its context rides in the RunStart, so the server-side
  // application runs as its child.
  std::vector<torque::RunStart> batch;
  std::vector<std::pair<const torque::JobInfo*, bool>> staged;  // backfill?
  const auto stage = [&](const torque::JobInfo& job, Allocation alloc,
                         bool backfill) {
    trace::SpanScope span("maui.run_job",
                          trace::Context{job.trace_id, job.origin_span});
    span.note("job", std::to_string(job.id));
    span.note("compute", std::to_string(alloc.compute.size()));
    span.note("accel", std::to_string(alloc.accel.size()));
    const auto ctx = span.context();
    batch.push_back({.job = job.id,
                     .compute = std::move(alloc.compute),
                     .accel = std::move(alloc.accel),
                     .trace_id = ctx.trace,
                     .span = ctx.span});
    staged.emplace_back(&job, backfill);
  };

  bool blocked = false;
  double shadow_time = 0.0;  // absolute server time the blocked job can start

  for (const auto* job : queued) {
    if (proc.stop_requested()) throw util::StoppedError();
    if (!blocked) {
      auto alloc = try_allocate(nodes, job->spec.resources);
      if (alloc.ok) {
        stage(*job, std::move(alloc), /*backfill=*/false);
        continue;
      }
      if (config_.policy != Policy::kBackfill) {
        if (config_.policy == Policy::kFifo) break;  // strict FIFO blocks
        continue;  // priority: skip, try the next job
      }
      // EASY backfill: reserve for this job and compute its shadow time
      // from the running jobs' walltime estimates.
      blocked = true;
      std::vector<std::pair<double, const torque::JobInfo*>> ends;
      ends.reserve(running.size());
      for (const auto* rj : running) {
        const double start =
            rj->start_time >= 0.0 ? rj->start_time : snap.now;
        ends.emplace_back(start + walltime_s(*rj), rj);
      }
      std::sort(ends.begin(), ends.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto future = nodes;  // copy of the current free view
      shadow_time = snap.now + 3600.0;  // fallback horizon
      for (const auto& [end_time, rj] : ends) {
        // Return the finished job's slots to the view.
        for (auto& n : future) {
          const auto held_compute =
              std::find(rj->compute_hosts.begin(), rj->compute_hosts.end(),
                        n.hostname) != rj->compute_hosts.end();
          if (held_compute) n.free += rj->spec.resources.ppn;
          const auto held_accel =
              std::find(rj->accel_hosts.begin(), rj->accel_hosts.end(),
                        n.hostname) != rj->accel_hosts.end() ||
              std::find(rj->dyn_accel_hosts.begin(),
                        rj->dyn_accel_hosts.end(),
                        n.hostname) != rj->dyn_accel_hosts.end();
          if (held_accel) n.free += 1;
        }
        auto probe = future;
        if (try_allocate(probe, job->spec.resources).ok) {
          shadow_time = end_time;
          break;
        }
      }
      continue;
    }
    // Backfill candidates behind the reservation: run only if they fit now
    // and finish before the shadow time (conservative EASY).
    if (snap.now + walltime_s(*job) > shadow_time) continue;
    auto alloc = try_allocate(nodes, job->spec.resources);
    if (!alloc.ok) continue;
    stage(*job, std::move(alloc), /*backfill=*/true);
  }
  if (batch.empty()) return;

  // Ship. The server applies the starts in order and answers one outcome
  // per start; only accepted starts count, when the reply is folded. A
  // retransmit is safe: the server de-duplicates request ids.
  struct Started {
    std::string owner;
    double usage = 0.0;  // node-seconds, fairshare
    bool backfill = false;
  };
  std::vector<Started> started;
  for (const auto& [job, backfill] : staged) {
    started.push_back({.owner = job->spec.owner,
                       .usage = job->spec.resources.nodes * walltime_s(*job),
                       .backfill = backfill});
  }
  util::ByteWriter w;
  torque::put_run_starts(w, batch);
  const auto settle_batch = [this, started = std::move(started)](
                                const Assumed& assumed, svc::Outcome answer) {
    if (!answer.ok()) {
      kLog.warn("run_job batch ({} start(s)) not applied: {}", started.size(),
                answer.error);
      return;
    }
    util::ByteReader r(*answer.reply);
    std::vector<bool> accepted(started.size(), false);
    const auto n = r.get<std::uint32_t>();
    for (std::size_t i = 0; i < n; ++i) accepted.at(i) = r.get_bool();
    (void)mirror_.apply(torque::get_sched_delta(r));
    for (std::size_t i = 0; i < started.size(); ++i) {
      const auto& st = started[i];
      if (!accepted[i]) {
        kLog.warn("run_job {} refused by the server", assumed.starts[i].job);
        refused_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      jobs_started_.fetch_add(1, std::memory_order_relaxed);
      usage_[st.owner] += st.usage;
      if (st.backfill) backfilled_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ship(torque::MsgType::kRunJob, w.bytes(), settle_batch,
       {.starts = std::move(batch)});
}

}  // namespace dac::maui

#include "torque/server.hpp"
#include "simtime/clock.hpp"

#include <algorithm>

#include "svc/deadlines.hpp"
#include "trace/trace.hpp"

#include "util/check.hpp"
#include "util/logging.hpp"

namespace dac::torque {

namespace {
const util::Logger kLog("pbs_server");

// How long a terminal job keeps its full record, in virtual seconds, as
// TORQUE's keep_completed does. After it, the job answers from its
// tombstone, and a late call answer for it finds no record.
constexpr double kJobRetentionS = 1.0;
// Tombstones kept: a retired id answers until 65,536 later ids retire.
constexpr std::size_t kRetiredJobs = 1 << 16;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          simtime::now().time_since_epoch())
          .count());
}

bool wait_reached(const JobInfo& info, JobState state) {
  return info.state == state || info.state == JobState::kComplete ||
         info.state == JobState::kCancelled;
}

// WAIT_JOB reply body: a reached flag, then the job's info if reached.
util::Bytes wait_reply(const JobInfo* reached) {
  util::ByteWriter w;
  w.put_bool(reached != nullptr);
  if (reached != nullptr) put_job_info(w, *reached);
  return std::move(w).take();
}
}  // namespace

void put_host_refs(util::ByteWriter& w, const std::vector<HostRef>& hosts) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(hosts.size()));
  for (const auto& h : hosts) {
    w.put_string(h.hostname);
    w.put<std::int32_t>(h.node);
    w.put<std::int32_t>(h.mom.node);
    w.put<std::int32_t>(h.mom.port);
  }
}

std::vector<HostRef> get_host_refs(util::ByteReader& r) {
  const auto n = r.get<std::uint32_t>();
  std::vector<HostRef> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    HostRef h;
    h.hostname = r.get_string();
    h.node = r.get<std::int32_t>();
    h.mom.node = r.get<std::int32_t>();
    h.mom.port = r.get<std::int32_t>();
    out.push_back(std::move(h));
  }
  return out;
}

void put_queue_snapshot(util::ByteWriter& w, const QueueSnapshot& s) {
  w.put<double>(s.now);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.jobs.size()));
  for (const auto& j : s.jobs) put_job_info(w, j);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.dyn.size()));
  for (const auto& d : s.dyn) put_dyn_queue_entry(w, d);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.elastic.size()));
  for (const auto& v : s.elastic) elastic::put_job_view(w, v);
}

QueueSnapshot get_queue_snapshot(util::ByteReader& r) {
  QueueSnapshot s;
  s.now = r.get<double>();
  const auto nj = r.get<std::uint32_t>();
  s.jobs.reserve(nj);
  for (std::uint32_t i = 0; i < nj; ++i) s.jobs.push_back(get_job_info(r));
  const auto nd = r.get<std::uint32_t>();
  s.dyn.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) s.dyn.push_back(get_dyn_queue_entry(r));
  const auto ne = r.get<std::uint32_t>();
  s.elastic.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) {
    s.elastic.push_back(elastic::get_job_view(r));
  }
  return s;
}

PbsServer::PbsServer(vnet::Node& node, BatchTiming timing)
    : node_(node),
      timing_(timing),
      endpoint_(node.open_endpoint()),
      start_(simtime::now()),
      retired_(kRetiredJobs) {}

double PbsServer::now_s() const {
  return std::chrono::duration<double>(simtime::now() -
                                       start_)
      .count();
}

void PbsServer::run(vnet::Process& proc) {
  proc.adopt_mailbox(endpoint_->mailbox_weak());
  kLog.info("pbs_server up at {}", endpoint_->address().str());
  svc::ServiceConfig cfg;
  cfg.name = "pbs_server";
  cfg.service_cost = timing_.server_service_cost;
  svc::ServiceLoop loop(*endpoint_, cfg, &metrics_);
  loop_ = &loop;
  register_handlers(loop);
  // Failure detector: advance liveness at the heartbeat cadence so a dead
  // node is declared suspect/down even when nobody runs pbsnodes.
  loop.add_tick(timing_.mom_heartbeat_interval, [this] {
    ScopedLock lock(state_mu_);
    refresh_liveness();
    end_change();
  });
  loop.run();
  loop_ = nullptr;
  kLog.info("pbs_server shutting down");
}

void PbsServer::register_handlers(svc::ServiceLoop& loop) {
  using svc::Request;
  using svc::Responder;

  // Every handler runs on the serialized lane under the state lock. Any
  // that may move a job ends with end_change().
  const auto mut = [&](MsgType type,
                       void (PbsServer::*fn)(const rpc::Request&, Responder&)) {
    loop.on(type, [this, fn](const Request& req, Responder& resp) {
      ScopedLock lock(state_mu_);
      (this->*fn)(req, resp);
      end_change();
    });
  };
  // Requests that move no job: nothing to end.
  const auto read = [&](MsgType type,
                        void (PbsServer::*fn)(const rpc::Request&,
                                              Responder&)) {
    loop.on(type, [this, fn](const Request& req, Responder& resp) {
      ScopedLock lock(state_mu_);
      (this->*fn)(req, resp);
    });
  };

  mut(MsgType::kSubmit, &PbsServer::on_submit);
  mut(MsgType::kDeleteJob, &PbsServer::on_delete_job);
  mut(MsgType::kAlterJob, &PbsServer::on_alter_job);
  mut(MsgType::kDynGet, &PbsServer::on_dynget);
  mut(MsgType::kDynFree, &PbsServer::on_dynfree);
  mut(MsgType::kRegisterNode, &PbsServer::on_register_node);
  mut(MsgType::kRegisterScheduler, &PbsServer::on_register_scheduler);
  mut(MsgType::kRunJob, &PbsServer::on_run_job);
  mut(MsgType::kElastRegister, &PbsServer::on_elast_register);
  // The one notification that moves a job: the mom expects no reply.
  loop.on(MsgType::kJobComplete, [this](const Request& req, Responder&) {
    ScopedLock lock(state_mu_);
    on_job_complete(req);
    end_change();
  });

  read(MsgType::kStatJobs, &PbsServer::on_stat_jobs);
  read(MsgType::kStatJob, &PbsServer::on_stat_job);
  read(MsgType::kWaitJob, &PbsServer::on_wait_job);
  read(MsgType::kGetSched, &PbsServer::on_get_sched);
  mut(MsgType::kDynDecide, &PbsServer::on_dyn_decide);
  read(MsgType::kStatNodes, &PbsServer::on_stat_nodes);
  // Mom and dacc-backend heartbeats carry the same body (hostname) and feed
  // the same detector; two codes keep the metrics table honest about who is
  // beating.
  for (const auto type :
       {MsgType::kMomHeartbeat, MsgType::kBackendHeartbeat}) {
    loop.on(type, [this](const Request& req, Responder&) {
      ScopedLock lock(state_mu_);
      on_heartbeat(req);
    });
  }
}

void PbsServer::on_heartbeat(const rpc::Request& req) {
  util::ByteReader r(req.body);
  const auto hostname = r.get_string();
  if (nodes_.heartbeat(hostname, now_s())) {
    kLog.info("node '{}' back up (heartbeat resumed)", hostname);
    record_event(MsgType::kEvNodeUp);
  }
}

void PbsServer::refresh_liveness() {
  const double interval =
      std::chrono::duration<double>(timing_.mom_heartbeat_interval).count();
  const double suspect_after = timing_.heartbeat_suspect_factor * interval;
  const double down_after = timing_.heartbeat_stale_factor * interval;
  const auto changes =
      nodes_.refresh_liveness(now_s(), suspect_after, down_after);
  for (const auto& host : changes.went_suspect) {
    kLog.warn("node '{}' suspect (heartbeat overdue)", host);
    record_event(MsgType::kEvNodeSuspect);
  }
  for (const auto& host : changes.went_down) {
    kLog.warn("node '{}' marked down (stale heartbeat)", host);
    record_event(MsgType::kEvNodeDown);
    handle_node_down(host);
  }
}

void PbsServer::handle_node_down(const std::string& hostname) {
  const auto n = nodes_.lookup(hostname);
  if (!n) return;
  if (n->kind == NodeKind::kCompute) {
    fail_jobs_on(hostname);
  } else {
    reclaim_accel_slots(hostname);
  }
}

void PbsServer::flush_wake() {
  if (!wake_wanted_) return;
  wake_wanted_ = false;
  // A scheduler with nothing to start, grant or negotiate would run an
  // empty cycle; what changed reaches it in the next delta instead.
  const bool can_act =
      queued_jobs_ > 0 || queued_dyns_ > 0 || !agents_.empty();
  if (!scheduler_known_ || !can_act) return;
  util::ByteWriter w;
  put_delta(w);
  rpc::notify(*endpoint_, scheduler_, MsgType::kSchedWake,
              std::move(w).take());
}

void PbsServer::call(const vnet::Address& to, MsgType type,
                     const util::Bytes& body,
                     std::chrono::milliseconds deadline, Answer then,
                     JobId job, std::uint64_t key) {
  loop_->call_all({to}, type, body, deadline,
                  [this, then, job, key](std::vector<svc::Outcome> out) {
                    ScopedLock lock(state_mu_);
                    (this->*then)(job, key, out.front());
                    end_change();
                  });
}

std::vector<HostRef> PbsServer::host_refs(
    const std::vector<std::string>& hostnames) const {
  std::vector<HostRef> out;
  out.reserve(hostnames.size());
  for (const auto& h : hostnames) {
    HostRef ref;
    ref.hostname = h;
    if (const auto n = nodes_.lookup(h)) {
      ref.node = n->node_id;
      ref.mom = n->mom_addr;
    }
    out.push_back(std::move(ref));
  }
  return out;
}

// --------------------------------------------------------------- clients

void PbsServer::on_submit(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  JobRecord rec;
  rec.info.spec = get_job_spec(r);
  // A job needs a mother superior: at least one compute node running at
  // least one process. A zero-node job would pass allocation vacuously.
  const auto& res = rec.info.spec.resources;
  if (res.nodes < 1 || res.ppn < 1 || res.acpn < 0) {
    resp.error(ReplyCode::kError,
               "submit: need nodes >= 1, ppn >= 1 and acpn >= 0");
    return;
  }
  rec.info.id = next_job_id_++;
  rec.info.state = JobState::kQueued;
  rec.info.submit_time = now_s();
  // The submission's trace follows the job through scheduling and launch:
  // the SUBMIT handler span (current context) is its origin.
  rec.info.trace_id = trace::current().trace;
  rec.info.origin_span = trace::current().span;
  const auto id = rec.info.id;
  trace::note("job", std::to_string(id));
  jobs_.emplace(id, std::move(rec));
  ++queued_jobs_;
  touch_job(id);
  kLog.info("job {} '{}' queued ({} nodes, acpn {})", id,
            jobs_[id].info.spec.name, jobs_[id].info.spec.resources.nodes,
            jobs_[id].info.spec.resources.acpn);
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  resp.ok(std::move(w).take());
  wake_scheduler();
}

void PbsServer::on_stat_jobs(const rpc::Request& req, svc::Responder& resp) {
  (void)req;
  // Records and tombstones, merged in id order.
  const auto retired = retired_.list();
  util::ByteWriter w;
  w.put<std::uint32_t>(
      static_cast<std::uint32_t>(jobs_.size() + retired.size()));
  auto t = retired.begin();
  for (const auto& [id, rec] : jobs_) {
    for (; t != retired.end() && t->id < id; ++t) put_job_info(w, *t);
    put_job_info(w, rec.info);
  }
  for (; t != retired.end(); ++t) put_job_info(w, *t);
  resp.ok(std::move(w).take());
}

void PbsServer::on_stat_job(const rpc::Request& req, svc::Responder& resp) {
  // Point query: O(1) instead of shipping the whole — ever-growing — job
  // table.
  util::ByteReader r(req.body);
  const auto id = r.get<std::uint64_t>();
  util::ByteWriter w;
  if (auto it = jobs_.find(id); it != jobs_.end()) {
    w.put_bool(true);
    put_job_info(w, it->second.info);
  } else if (const auto retired = retired_.find(id)) {
    w.put_bool(true);
    put_job_info(w, *retired);
  } else {
    w.put_bool(false);
  }
  resp.ok(std::move(w).take());
}

void PbsServer::on_wait_job(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto id = r.get<std::uint64_t>();
  const auto state = r.get_enum<JobState>();
  const auto budget = std::chrono::milliseconds(r.get<std::int64_t>());
  trace::note("job", std::to_string(id));
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    // A retired job is terminal, so it has reached every state.
    const auto retired = retired_.find(id);
    resp.ok(wait_reply(retired ? &*retired : nullptr));
    return;
  }
  if (wait_reached(it->second.info, state)) {
    resp.ok(wait_reply(&it->second.info));
    return;
  }
  // Held like a pbs_dynget reply. The budget timer answers "not reached"
  // while the client still listens: its own deadline is longer.
  const auto wait_id = next_wait_id_++;
  const auto timer =
      loop_->add_timer(simtime::now() + budget, [this, wait_id] {
        ScopedLock lock(state_mu_);
        if (auto w = job_waits_.find(wait_id); w != job_waits_.end()) {
          w->second.responder.ok(wait_reply(nullptr));
          job_waits_.erase(w);
        }
      });
  job_waits_.emplace(wait_id, JobWait{id, state, resp, timer});
}

void PbsServer::end_change() {
  settle_job_waits();
  retire_jobs();
  flush_wake();
}

void PbsServer::settle_job_waits() {
  for (auto w = job_waits_.begin(); w != job_waits_.end();) {
    const auto& info = jobs_.at(w->second.job).info;
    if (!wait_reached(info, w->second.state)) {
      ++w;
      continue;
    }
    w->second.responder.ok(wait_reply(&info));
    loop_->cancel_timer(w->second.timer);
    w = job_waits_.erase(w);
  }
}

void PbsServer::finish_record(JobId id, JobRecord& rec, JobState state) {
  rec.info.state = state;
  rec.info.end_time = now_s();
  ended_.emplace_back(rec.info.end_time, id);
}

void PbsServer::retire_jobs() {
  const double horizon = now_s() - kJobRetentionS;
  while (!ended_.empty() && ended_.front().first <= horizon) {
    const auto id = ended_.front().second;
    ended_.pop_front();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.info.end_time > horizon) continue;
    retired_.add(it->second.info);
    jobs_.erase(it);
  }
}

void PbsServer::on_stat_nodes(const rpc::Request& req, svc::Responder& resp) {
  // No detector advance here: the liveness tick runs at the heartbeat
  // cadence regardless of pbsnodes traffic, and this handler holds no lock
  // that would let it mutate job state anyway.
  (void)req;
  util::ByteWriter w;
  const auto snap = nodes_.snapshot();
  w.put<std::uint32_t>(static_cast<std::uint32_t>(snap.size()));
  for (const auto& n : snap) put_node_status(w, n);
  resp.ok(std::move(w).take());
}

void PbsServer::fail_jobs_on(const std::string& hostname) {
  // A compute node died: jobs it mother-superiors (or computes for) cannot
  // finish on it. With job_requeue_limit > 0 the job goes back to kQueued
  // (all held resources freed, host lists cleared) for the scheduler to
  // place afresh; past the limit — or with the default limit of 0 — it is
  // failed outright. Accelerator nodes are handled by reclaim_accel_slots.
  for (auto& [id, rec] : jobs_) {
    if (rec.info.state != JobState::kRunning &&
        rec.info.state != JobState::kDynQueued) {
      continue;
    }
    const auto& hosts = rec.info.compute_hosts;
    if (std::find(hosts.begin(), hosts.end(), hostname) == hosts.end()) {
      continue;
    }
    // If the mother superior itself is the dead node, the kill lands in a
    // dead mailbox — harmless.
    end_job(id, rec, /*kill=*/true);
    rec.dyn_sets.clear();
    rec.info.compute_hosts.clear();
    rec.info.accel_hosts.clear();
    rec.info.dyn_accel_hosts.clear();
    if (rec.info.requeues < timing_.job_requeue_limit) {
      ++rec.info.requeues;
      rec.info.state = JobState::kQueued;
      ++queued_jobs_;
      rec.info.start_time = -1.0;
      rec.info.end_time = -1.0;
      rec.info.exit_status = kExitOk;
      kLog.warn("requeueing job {} (attempt {}): compute node '{}' down", id,
                rec.info.requeues, hostname);
      record_event(MsgType::kEvJobRequeue);
    } else {
      kLog.warn("failing job {}: compute node '{}' went down", id, hostname);
      finish_record(id, rec, JobState::kCancelled);
      rec.info.exit_status = kExitKilled;
      record_event(MsgType::kEvJobFailed);
    }
  }
}

void PbsServer::reclaim_accel_slots(const std::string& hostname) {
  // An accelerator node died. Its slots are reclaimed here so the scheduler
  // can re-grant the capacity elsewhere; the running job is NOT killed —
  // the application sees the loss as a distinct frontend error and may
  // pbs_dynget a replacement.
  bool reclaimed = false;
  for (auto& [id, rec] : jobs_) {
    bool held = false;
    if (std::erase(rec.info.accel_hosts, hostname) > 0) held = true;
    if (std::erase(rec.info.dyn_accel_hosts, hostname) > 0) held = true;
    for (auto it = rec.dyn_sets.begin(); it != rec.dyn_sets.end();) {
      std::erase(it->second, hostname);
      it = it->second.empty() ? rec.dyn_sets.erase(it) : std::next(it);
    }
    if (held) {
      nodes_.release(hostname, id);
      touch_job(id);
      kLog.warn("reclaimed accelerator '{}' from job {} (node down)",
                hostname, id);
      record_event(MsgType::kEvAcReclaim);
      reclaimed = true;
    }
  }
  // Offers naming the dead host cannot complete. Grow reservations are not
  // in any job host list (the loop above never sees them), so the revert
  // frees every reserved slot — including those on hosts that are still
  // alive. A release in flight stays: the mother superior still answers
  // MOM_RELEASE once the dead sister's DISJOIN_JOB times out. A reverted
  // offer's answer, when it comes, finds no offer and moves nothing.
  for (auto op = ops_.begin(); op != ops_.end();) {
    if (op->stage != SetOp::Stage::kOffered ||
        std::find(op->hosts.begin(), op->hosts.end(), hostname) ==
            op->hosts.end()) {
      ++op;
      continue;
    }
    revert_offer(*op);
    kLog.warn("elastic offer {} for job {} cancelled: node '{}' down",
              op->offer_id, op->job, hostname);
    reclaimed = true;
    op = erase_op(op);
  }
  if (reclaimed) wake_scheduler();
}

void PbsServer::on_delete_job(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto id = r.get<std::uint64_t>();
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    resp.error(ReplyCode::kUnknownJob, "no such job");
    return;
  }
  auto& rec = it->second;
  if (rec.info.state == JobState::kQueued) --queued_jobs_;
  end_job(id, rec, /*kill=*/true);
  finish_record(id, rec, JobState::kCancelled);
  resp.ok();
}

void PbsServer::on_alter_job(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto id = r.get<std::uint64_t>();
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    resp.error(ReplyCode::kUnknownJob, "no such job");
    return;
  }
  auto& rec = it->second;
  if (rec.info.state != JobState::kQueued) {
    resp.error(ReplyCode::kBadRequest, "qalter: job is not queued");
    return;
  }
  if (r.get_bool()) rec.info.spec.priority = r.get<std::int32_t>();
  if (r.get_bool()) {
    rec.info.spec.resources.walltime =
        std::chrono::milliseconds(r.get<std::int64_t>());
  }
  if (r.get_bool()) rec.info.spec.name = r.get_string();
  touch_job(id);
  kLog.info("job {} altered", id);
  resp.ok();
  wake_scheduler();
}

void PbsServer::on_dynget(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto count = r.get<std::int32_t>();
  const auto min_count = r.get<std::int32_t>();
  const auto kind = r.get_enum<NodeKind>();
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    resp.error(ReplyCode::kUnknownJob, "dynget: no such job");
    return;
  }
  if (it->second.info.state != JobState::kRunning &&
      it->second.info.state != JobState::kDynQueued) {
    resp.error(ReplyCode::kBadRequest, "dynget: job not running");
    return;
  }
  if (count <= 0 || min_count <= 0 || min_count > count) {
    resp.error(ReplyCode::kBadRequest, "dynget: need 0 < min_count <= count");
    return;
  }

  SetOp op;
  op.job = job_id;
  // The requester's trace context rides in the queue snapshot, so the
  // scheduler's grant/reject decision span joins its trace.
  op.entry = DynQueueEntry{.dyn_id = next_dyn_id_++,
                           .job = job_id,
                           .count = count,
                           .min_count = min_count,
                           .kind = kind,
                           .arrival = now_s(),
                           .trace_id = req.ctx.trace,
                           .origin_span = req.ctx.span};
  // Deferred reply: finish_dynget completes the Responder once the
  // scheduler has decided, or end_job if the job ends first.
  op.responder = resp;
  op.arrival_ns = steady_ns();
  const auto dyn_id = op.entry.dyn_id;
  trace::note("job", std::to_string(job_id));
  trace::note("dyn", std::to_string(dyn_id));
  const bool blocked = dynget_blocked(job_id);
  const auto queued = ops_.insert(ops_.end(), std::move(op));
  if (blocked) {
    kLog.debug("dyn {} for job {} waits for the job's queued dyn or release",
               dyn_id, job_id);
    return;
  }
  queue_dynget(queued, it->second);
  kLog.info("job {} dynqueued: +{} accelerators (dyn {})", job_id, count,
            dyn_id);
}

void PbsServer::on_dynfree(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto client_id = r.get<std::uint64_t>();
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    resp.error(ReplyCode::kUnknownJob, "no such job");
    return;
  }
  auto& rec = it->second;
  if (!rec.dyn_sets.contains(client_id)) {
    resp.error(ReplyCode::kBadRequest, "dynfree: unknown client id");
    return;
  }
  // Positive reply first; disassociation proceeds while the application
  // continues (paper §III-D).
  resp.ok();
  if (release_dyn_set(job_id, rec, client_id)) {
    ops_.push_back(SetOp{.job = job_id,
                         .grow = false,
                         .stage = SetOp::Stage::kReleasing,
                         .client_id = client_id});
  }
}

bool PbsServer::release_dyn_set(JobId job_id, JobRecord& rec,
                                std::uint64_t client_id) {
  auto set = rec.dyn_sets.find(client_id);
  if (set == rec.dyn_sets.end()) return false;

  // A down host cannot answer the mother superior's DISJOIN_JOB, so the
  // release would wait out the fan-out's deadline. Release dead hosts
  // directly here and only forward the live remainder.
  std::vector<std::string> live;
  std::vector<std::string> dead;
  for (const auto& h : set->second) {
    const auto n = nodes_.lookup(h);
    (n && n->liveness == Liveness::kDown ? dead : live).push_back(h);
  }
  for (const auto& h : dead) {
    nodes_.release(h, job_id);
    std::erase(rec.info.dyn_accel_hosts, h);
    touch_job(job_id);
  }
  if (rec.ms_valid && !live.empty()) {
    set->second = live;  // on_released frees exactly what was forwarded
    util::ByteWriter w;
    w.put<std::uint64_t>(job_id);
    w.put<std::uint64_t>(client_id);
    put_host_refs(w, host_refs(live));
    call(rec.ms, MsgType::kMomRelease, w.bytes(), svc::deadlines::kDefault,
         &PbsServer::on_released, job_id, client_id);
    return true;
  }
  // No mother superior (already exiting) or nothing left alive: free
  // directly.
  for (const auto& h : live) nodes_.release(h, job_id);
  std::erase_if(rec.info.dyn_accel_hosts, [&](const std::string& h) {
    return std::find(live.begin(), live.end(), h) != live.end();
  });
  rec.dyn_sets.erase(set);
  touch_job(job_id);
  wake_scheduler();
  return false;
}

void PbsServer::on_released(JobId job_id, std::uint64_t client_id,
                            const svc::Outcome& answer) {
  if (!answer.ok()) {
    kLog.warn("job {}: release of set {} unanswered ({})", job_id, client_id,
              answer.error);
    return;
  }
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;  // ended and retired meanwhile
  auto& rec = it->second;
  // The release is over, whether a dynfree or an accepted shrink started
  // it, so dyngets that waited for it may go to the scheduler. It sees the
  // slots freed below: this answer is settled first.
  for (auto op = ops_.begin(); op != ops_.end();) {
    if (op->job != job_id || op->stage != SetOp::Stage::kReleasing ||
        op->client_id != client_id) {
      ++op;
      continue;
    }
    if (op->by_scheduler) {
      kLog.info("elastic shrink of job {} committed (offer {}, set {})",
                job_id, op->offer_id, client_id);
    }
    op = erase_op(op);
  }
  queue_next_dynget(job_id, rec);
  auto set = rec.dyn_sets.find(client_id);
  if (set == rec.dyn_sets.end()) return;
  for (const auto& h : set->second) nodes_.release(h, job_id);
  std::erase_if(rec.info.dyn_accel_hosts, [&](const std::string& h) {
    return std::find(set->second.begin(), set->second.end(), h) !=
           set->second.end();
  });
  rec.dyn_sets.erase(set);
  touch_job(job_id);
  kLog.info("job {} released dynamic set {}", job_id, client_id);
  wake_scheduler();
}

void PbsServer::on_register_node(const rpc::Request& req,
                                 svc::Responder& resp) {
  util::ByteReader r(req.body);
  auto status = get_node_status(r);
  kLog.info("node '{}' registered ({}, np {})", status.hostname,
            status.kind == NodeKind::kCompute ? "compute" : "accelerator",
            status.np);
  const auto hostname = status.hostname;
  nodes_.upsert(std::move(status));
  nodes_.heartbeat(hostname, now_s());
  resp.ok();
}

void PbsServer::on_register_scheduler(const rpc::Request& req,
                                      svc::Responder& resp) {
  // The body carries the scheduler's long-lived endpoint (req.from is the
  // ephemeral rpc endpoint of the registration call).
  util::ByteReader r(req.body);
  scheduler_.node = r.get<std::int32_t>();
  scheduler_.port = r.get<std::int32_t>();
  scheduler_known_ = true;
  kLog.info("scheduler registered at {}", scheduler_.str());
  resp.ok();
  wake_scheduler();
}

void PbsServer::on_started(JobId job, std::uint64_t /*key*/,
                           const svc::Outcome& answer) {
  if (!answer.ok()) {
    kLog.warn("job {}: start not confirmed ({})", job, answer.error);
    return;
  }
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;  // ended and retired meanwhile
  it->second.info.start_time = now_s();
  touch_job(job);
  kLog.info("job {} started", job);
}

void PbsServer::on_job_complete(const rpc::Request& req) {
  util::ByteReader r(req.body);
  const auto id = r.get<std::uint64_t>();
  const auto exit_status = r.get<std::int32_t>();
  auto it = jobs_.find(id);
  // Only a running job completes. One that qdel or a node failure already
  // ended, or requeued, stays as it is: the report of its killed task
  // changes nothing.
  if (it == jobs_.end() || (it->second.info.state != JobState::kRunning &&
                            it->second.info.state != JobState::kDynQueued)) {
    return;
  }
  auto& rec = it->second;
  end_job(id, rec, /*kill=*/false);
  finish_record(id, rec, JobState::kComplete);
  rec.info.exit_status = exit_status;
  kLog.info("job {} complete", id);
}

// ------------------------------------------------------------- scheduler

std::vector<DynQueueEntry> PbsServer::dyn_entries() const {
  std::vector<DynQueueEntry> out;
  out.reserve(queued_dyns_);
  for (const auto& op : ops_) {
    if (op.stage == SetOp::Stage::kQueued) out.push_back(op.entry);
  }
  return out;
}

std::vector<elastic::JobView> PbsServer::elastic_views() const {
  std::vector<elastic::JobView> out;
  for (const auto& [job_id, reg] : agents_) {
    const auto& rec = jobs_.at(job_id);
    if (rec.info.state != JobState::kRunning &&
        rec.info.state != JobState::kDynQueued) {
      continue;
    }
    elastic::JobView v;
    v.job = job_id;
    v.can_grow = reg.can_grow;
    v.can_shrink = reg.can_shrink;
    v.appetite = reg.appetite;
    v.offer_pending = negotiating(job_id);
    if (!rec.dyn_sets.empty()) {
      v.newest_set_size =
          static_cast<std::int32_t>(rec.dyn_sets.rbegin()->second.size());
    }
    out.push_back(v);
  }
  return out;
}

void PbsServer::on_get_sched(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto client_epoch = r.get<std::uint64_t>();
  const bool force_full = r.get_bool();
  util::ByteWriter w;
  put_sched_delta(w, take_delta(client_epoch, force_full));
  resp.ok(std::move(w).take());
}

void PbsServer::put_delta(util::ByteWriter& w) {
  put_sched_delta(w, take_delta(sched_feed_.epoch(), /*force_full=*/false));
}

SchedDelta PbsServer::take_delta(std::uint64_t client_epoch,
                                 bool force_full) {
  const auto fetch = sched_feed_.begin_fetch(client_epoch, force_full);

  SchedDelta d;
  d.epoch = fetch.epoch;
  d.full = fetch.full;
  d.now = now_s();
  if (fetch.full) {
    for (const auto& [id, rec] : jobs_) {
      if (rec.info.state == JobState::kComplete ||
          rec.info.state == JobState::kCancelled) {
        continue;
      }
      d.jobs.push_back(rec.info);
    }
    d.nodes = nodes_.snapshot();
    (void)nodes_.drain_dirty();  // the snapshot supersedes any pending delta
  } else {
    for (const auto id : fetch.jobs) {
      // Terminal jobs ARE shipped in a delta — the mirror needs to see the
      // transition to drop them. A job retired since it changed ships its
      // tombstone, which is terminal too.
      if (const auto it = jobs_.find(id); it != jobs_.end()) {
        d.jobs.push_back(it->second.info);
      } else if (auto retired = retired_.find(id)) {
        d.jobs.push_back(*std::move(retired));
      }
    }
    for (const auto& host : nodes_.drain_dirty()) {
      if (auto st = nodes_.lookup(host)) d.nodes.push_back(*std::move(st));
    }
  }
  d.dyn = dyn_entries();
  d.elastic = elastic_views();
  return d;
}

void PbsServer::on_run_job(const rpc::Request& req, svc::Responder& resp) {
  // A pass's static starts, applied in the scheduler's queue order under
  // one lock acquisition. Each replays inside its maui.run_job decision span,
  // so each job's causal tree is the same whatever batch it rode in. A
  // refused start is not a batch error: the reply carries one outcome per
  // start, and every accepted start's MOM_RUN_JOB is already sent.
  util::ByteReader r(req.body);
  const auto starts = get_run_starts(r);
  util::ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(starts.size()));
  for (const auto& start : starts) {
    trace::SpanScope span("serve.run_apply",
                          trace::Context{start.trace_id, start.span});
    trace::note("job", std::to_string(start.job));
    w.put_bool(run_apply(start));
  }
  put_delta(w);
  resp.ok(std::move(w).take());
}

bool PbsServer::run_apply(const RunStart& start) {
  const auto id = start.job;
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.info.state != JobState::kQueued ||
      start.compute.empty()) {
    return false;  // unknown, no longer queued, or no mother superior
  }
  auto& rec = it->second;
  if (!assign_all(id, start.compute, rec.info.spec.resources.ppn,
                  start.accel)) {
    return false;
  }

  rec.info.compute_hosts = start.compute;
  rec.info.accel_hosts = start.accel;
  rec.info.state = JobState::kRunning;
  --queued_jobs_;
  touch_job(id);

  if (rec.info.spec.program.empty()) {
    // Load-only job (no script): completes immediately.
    rec.info.start_time = now_s();
    finish_record(id, rec, JobState::kComplete);
    nodes_.release_all(id);
    wake_scheduler();
    return true;
  }

  const auto& ms_host = start.compute.front();
  const auto ms = nodes_.mom_of(ms_host);
  if (!ms) {
    kLog.error("job {}: no mom for mother superior host '{}'", id, ms_host);
    return true;
  }
  rec.ms = *ms;
  rec.ms_valid = true;

  // Full host list: compute nodes first, then accelerators (paper: the MS is
  // always a compute node).
  std::vector<std::string> all_hosts = start.compute;
  all_hosts.insert(all_hosts.end(), start.accel.begin(), start.accel.end());
  util::ByteWriter w;
  put_job_info(w, rec.info);
  put_host_refs(w, host_refs(all_hosts));
  call(rec.ms, MsgType::kMomRunJob, w.bytes(), svc::deadlines::kDefault,
       &PbsServer::on_started, id, 0);
  kLog.info("job {} sent to mother superior {}", id, ms_host);
  return true;
}

bool PbsServer::apply_dyn_grant(std::uint64_t dyn_id, std::uint64_t pickup_ns,
                                const std::vector<std::string>& hosts) {
  const auto op = find_queued(dyn_id);
  if (op == ops_.end()) return false;
  const auto job = op->job;
  const auto& dyn = op->entry;

  // The grant must honor the request bounds the scheduler saw and come
  // entirely from the free pool.
  if (hosts.size() < static_cast<std::size_t>(dyn.min_count) ||
      hosts.size() > static_cast<std::size_t>(dyn.count) ||
      !assign_all(job, {}, 0, hosts)) {
    DynGetReply reply;  // rejected
    reply.queue_wait_seconds =
        static_cast<double>(pickup_ns - op->arrival_ns) * 1e-9;
    finish_dynget(op, reply);
    return false;
  }

  // The mother superior learns the set first, then the compute node gets
  // its client-id — the paper's ordering (§III-D).
  DynGetReply reply;
  reply.granted = true;
  reply.client_id = attach_set(job, jobs_.at(job), hosts, dyn_id);
  for (const auto& ref : host_refs(hosts)) {
    reply.hosts.push_back(ref.hostname);
    reply.host_nodes.push_back(ref.node);
  }
  const auto done_ns = steady_ns();
  reply.queue_wait_seconds =
      static_cast<double>(pickup_ns - op->arrival_ns) * 1e-9;
  reply.service_seconds = static_cast<double>(done_ns - pickup_ns) * 1e-9;
  kLog.info("dyn {} for job {} granted: {} accelerator(s), client id {}",
            dyn_id, job, reply.hosts.size(), reply.client_id);
  finish_dynget(op, reply);
  return true;
}

bool PbsServer::apply_dyn_reject(std::uint64_t dyn_id,
                                 std::uint64_t pickup_ns) {
  const auto op = find_queued(dyn_id);
  if (op == ops_.end()) return false;
  DynGetReply reply;  // granted = false
  const auto done_ns = steady_ns();
  reply.queue_wait_seconds =
      static_cast<double>(pickup_ns - op->arrival_ns) * 1e-9;
  reply.service_seconds = static_cast<double>(done_ns - pickup_ns) * 1e-9;
  kLog.info("dyn {} for job {} rejected by scheduler", dyn_id, op->job);
  finish_dynget(op, reply);
  return true;
}

void PbsServer::on_dyn_decide(const rpc::Request& req, svc::Responder& resp) {
  // A pass's elastic proposals and dynget decisions (all of them, or one),
  // applied in the scheduler's order under one lock acquisition. Each
  // replays inside its decision span, so each causal tree is the same
  // whatever batch the item rode in. A refused item is not a batch error:
  // the reply carries one outcome per item. A grant that conflicts has
  // already rejected its request; a vanished id means the job ended after
  // the scheduler's view was taken.
  util::ByteReader r(req.body);
  const auto items = get_dyn_decisions(r);
  util::ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) {
    using Kind = DynDecision::Kind;
    const bool offer = item.kind == Kind::kGrow || item.kind == Kind::kShrink;
    trace::SpanScope span(offer ? "serve.elast_apply" : "serve.dyn_apply",
                          trace::Context{item.trace_id, item.span});
    trace::note(offer ? "job" : "dyn", std::to_string(item.id));
    bool applied = false;
    if (offer) {
      applied = apply_offer(item);
    } else if (item.kind == Kind::kGrant) {
      applied = apply_dyn_grant(item.id, item.pickup_ns, item.hosts);
    } else if (item.kind == Kind::kReject) {
      applied = apply_dyn_reject(item.id, item.pickup_ns);
    }
    w.put_bool(applied);
  }
  put_delta(w);
  resp.ok(std::move(w).take());
}

// ---------------------------------------------------- elastic negotiation

void PbsServer::on_elast_register(const rpc::Request& req,
                                  svc::Responder& resp) {
  util::ByteReader r(req.body);
  const auto reg = elastic::get_registration(r);
  auto it = jobs_.find(reg.job);
  if (it == jobs_.end()) {
    resp.error(ReplyCode::kUnknownJob, "elast_register: no such job");
    return;
  }
  const auto state = it->second.info.state;
  if (state != JobState::kRunning && state != JobState::kDynQueued) {
    resp.error(ReplyCode::kBadRequest, "elast_register: job not running");
    return;
  }
  trace::note("job", std::to_string(reg.job));
  // Re-registering replaces the record, restoring capabilities a revert
  // cleared.
  agents_[reg.job] = reg;
  kLog.info("job {} registered elastic agent at {} (grow {}, shrink {}, "
            "appetite {})",
            reg.job, reg.agent.str(), static_cast<int>(reg.can_grow),
            static_cast<int>(reg.can_shrink), reg.appetite);
  resp.ok();
  wake_scheduler();
}

bool PbsServer::apply_offer(const DynDecision& item) {
  const auto job = item.id;
  const auto kind = item.kind == DynDecision::Kind::kGrow
                        ? elastic::OfferKind::kGrow
                        : elastic::OfferKind::kShrink;
  const auto refuse = [&](const char* why) {
    kLog.info("elastic {} for job {} refused: {}",
              elastic::offer_kind_name(kind), job, why);
    return false;
  };
  const auto agent = agents_.find(job);
  const auto it = jobs_.find(job);
  if (agent == agents_.end() || it == jobs_.end()) {
    return refuse("job not registered");
  }
  auto& rec = it->second;
  const auto& reg = agent->second;
  if (rec.info.state != JobState::kRunning &&
      rec.info.state != JobState::kDynQueued) {
    return refuse("job not running");
  }
  if (negotiating(job)) return refuse("negotiation in flight");

  SetOp op;
  op.job = job;
  op.grow = kind == elastic::OfferKind::kGrow;
  op.by_scheduler = true;
  op.stage = SetOp::Stage::kOffered;
  if (op.grow) {
    if (!reg.can_grow) return refuse("job cannot grow");
    // Reserve the scheduler's hosts now, so no grant can take them during
    // the offer window. The reservation is assigned under the job id, so a
    // dying job's release_all frees it without knowing about the offer.
    if (item.hosts.empty() || !assign_all(job, {}, 0, item.hosts)) {
      return refuse("hosts not free");
    }
    op.hosts = item.hosts;
  } else {
    if (!reg.can_shrink) return refuse("job cannot shrink");
    if (rec.dyn_sets.empty()) return refuse("nothing to shrink");
    // Dynamic sets release LIFO (rmlib generations): offer the newest.
    const auto newest = rec.dyn_sets.rbegin();
    op.client_id = newest->first;
    op.hosts = newest->second;
  }
  for (const auto& ref : host_refs(op.hosts)) op.nodes.push_back(ref.node);

  op.offer_id = next_offer_id_++;
  util::ByteWriter w;
  elastic::put_offer(w, elastic::Offer{op.offer_id, job, kind, op.client_id,
                                       op.hosts, op.nodes});
  call(reg.agent, MsgType::kElastOffer, w.bytes(),
       timing_.elastic_offer_timeout, &PbsServer::on_offer_answer, job,
       op.offer_id);
  kLog.info("elastic {} offer {} for job {}: {} host(s)",
            elastic::offer_kind_name(kind), op.offer_id, job,
            op.hosts.size());
  ops_.push_back(std::move(op));
  return true;
}

void PbsServer::on_offer_answer(JobId job, std::uint64_t offer_id,
                                const svc::Outcome& answer) {
  const auto op =
      std::find_if(ops_.begin(), ops_.end(), [offer_id](const SetOp& o) {
        return o.stage == SetOp::Stage::kOffered && o.offer_id == offer_id;
      });
  if (op == ops_.end()) return;  // the job ended, or a node went down
  wake_scheduler();
  // The reply is the agent's accept flag; no reply by the deadline is a
  // nack too.
  if (!answer.ok() || !util::ByteReader(*answer.reply).get_bool()) {
    revert_offer(*op);
    kLog.info("elastic offer {} for job {} {}; reverted", offer_id, job,
              answer.ok() ? "declined" : answer.error);
    erase_op(op);
    return;
  }
  auto& rec = jobs_.at(job);
  if (op->grow) {
    // The reservation must still be intact: every reserved host shows the
    // job among its holders. Slot conservation is the invariant the
    // negotiation promises — no double grant, no leak.
    for (const auto& h : op->hosts) {
      const auto n = nodes_.lookup(h);
      DAC_CHECK(n.has_value() &&
                    std::find(n->jobs.begin(), n->jobs.end(), job) !=
                        n->jobs.end(),
                "elastic grow: reservation on '{}' lost before commit", h);
    }
    const auto client_id = attach_set(job, rec, op->hosts, /*dyn_id=*/0);
    auto& appetite = agents_.at(job).appetite;
    appetite =
        std::max(0, appetite - static_cast<std::int32_t>(op->hosts.size()));
    send_reconfig(*op, client_id);
    kLog.info("elastic grow committed for job {}: {} host(s), client id {}",
              job, op->hosts.size(), client_id);
    erase_op(op);
    return;
  }
  // Tell the agent the committed footprint first so the application
  // detaches from the set, then run the regular release path. The set is
  // already gone when the application freed it while the offer was
  // pending.
  send_reconfig(*op, op->client_id);
  kLog.info("elastic shrink accepted by job {}: releasing set {}", job,
            op->client_id);
  if (release_dyn_set(job, rec, op->client_id)) {
    op->stage = SetOp::Stage::kReleasing;
  } else {
    erase_op(op);
  }
}

void PbsServer::send_reconfig(const SetOp& op, std::uint64_t client_id) {
  const auto agent = agents_.find(op.job);
  if (agent == agents_.end()) return;
  util::ByteWriter w;
  elastic::put_offer(
      w, elastic::Reconfig{op.offer_id, op.job,
                           op.grow ? elastic::OfferKind::kGrow
                                   : elastic::OfferKind::kShrink,
                           client_id, op.hosts, op.nodes});
  rpc::notify(*endpoint_, agent->second.agent, MsgType::kElastReconfig,
              std::move(w).take());
}

// ------------------------------------------------------------ SetOp table

bool PbsServer::assign_all(JobId job, const std::vector<std::string>& compute,
                           int ppn, const std::vector<std::string>& accel) {
  std::vector<std::string> assigned;
  const auto take = [&](const std::vector<std::string>& hosts, int slots) {
    for (const auto& h : hosts) {
      if (!nodes_.assign(h, job, slots)) return false;
      assigned.push_back(h);
    }
    return true;
  };
  if (take(compute, ppn) && take(accel, 1)) return true;
  // The scheduler's view raced another assignment: back out the hosts this
  // call assigned.
  for (const auto& h : assigned) nodes_.release(h, job);
  return false;
}

PbsServer::OpIt PbsServer::find_queued(std::uint64_t dyn_id) {
  return std::find_if(ops_.begin(), ops_.end(), [dyn_id](const SetOp& op) {
    return op.stage == SetOp::Stage::kQueued && op.entry.dyn_id == dyn_id;
  });
}

bool PbsServer::dynget_blocked(JobId job) const {
  return std::any_of(ops_.begin(), ops_.end(), [job](const SetOp& op) {
    return op.job == job && (op.stage == SetOp::Stage::kQueued ||
                             op.stage == SetOp::Stage::kReleasing);
  });
}

bool PbsServer::negotiating(JobId job) const {
  return std::any_of(ops_.begin(), ops_.end(), [job](const SetOp& op) {
    return op.job == job && op.by_scheduler;
  });
}

void PbsServer::queue_dynget(OpIt op, JobRecord& rec) {
  op->stage = SetOp::Stage::kQueued;
  ops_.splice(ops_.end(), ops_, op);
  ++queued_dyns_;
  rec.info.state = JobState::kDynQueued;
  touch_job(op->job);
  wake_scheduler();
}

void PbsServer::queue_next_dynget(JobId job, JobRecord& rec) {
  if (dynget_blocked(job)) return;
  const auto next =
      std::find_if(ops_.begin(), ops_.end(), [job](const SetOp& op) {
        return op.job == job && op.stage == SetOp::Stage::kWaiting;
      });
  if (next != ops_.end()) queue_dynget(next, rec);
}

void PbsServer::finish_dynget(OpIt op, const DynGetReply& reply) {
  util::ByteWriter w;
  put_dynget_reply(w, reply);
  op->responder.ok(std::move(w).take());
  const auto job = op->job;
  erase_op(op);
  // Finishing a dyn flips the job's DYNQUEUED/RUNNING state (and a grant
  // changed its host lists before calling here).
  touch_job(job);
  auto& rec = jobs_.at(job);
  if (rec.info.state == JobState::kDynQueued) {
    rec.info.state = JobState::kRunning;
  }
  queue_next_dynget(job, rec);
}

PbsServer::OpIt PbsServer::erase_op(OpIt op) {
  if (op->stage == SetOp::Stage::kQueued) --queued_dyns_;
  return ops_.erase(op);
}

std::uint64_t PbsServer::attach_set(JobId job, JobRecord& rec,
                                    const std::vector<std::string>& hosts,
                                    std::uint64_t dyn_id) {
  const auto client_id = next_client_id_++;
  rec.dyn_sets[client_id] = hosts;
  rec.info.dyn_accel_hosts.insert(rec.info.dyn_accel_hosts.end(),
                                  hosts.begin(), hosts.end());
  touch_job(job);
  if (rec.ms_valid) {
    util::ByteWriter w;
    w.put<std::uint64_t>(job);
    w.put<std::uint64_t>(dyn_id);
    w.put<std::uint64_t>(client_id);
    put_host_refs(w, host_refs(hosts));
    rpc::notify(*endpoint_, rec.ms, MsgType::kMomDynAdd, std::move(w).take());
  }
  return client_id;
}

void PbsServer::revert_offer(const SetOp& op) {
  if (op.grow) {
    for (const auto& h : op.hosts) nodes_.release(h, op.job);
  }
  if (const auto agent = agents_.find(op.job); agent != agents_.end()) {
    (op.grow ? agent->second.can_grow : agent->second.can_shrink) = false;
  }
}

void PbsServer::end_job(JobId id, JobRecord& rec, bool kill) {
  if (kill && rec.ms_valid) {
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    rpc::notify(*endpoint_, rec.ms, MsgType::kMomKillJob, std::move(w).take());
  }
  rec.ms_valid = false;
  // Grow reservations are assigned under the job id: this frees them too.
  nodes_.release_all(id);
  for (auto op = ops_.begin(); op != ops_.end();) {
    if (op->job != id) {
      ++op;
      continue;
    }
    if (op->stage == SetOp::Stage::kWaiting ||
        op->stage == SetOp::Stage::kQueued) {
      util::ByteWriter w;
      put_dynget_reply(w, DynGetReply{});  // rejected
      op->responder.ok(std::move(w).take());
    }
    op = erase_op(op);
  }
  agents_.erase(id);
  touch_job(id);
  wake_scheduler();
}

}  // namespace dac::torque

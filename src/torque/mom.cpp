#include "torque/mom.hpp"
#include "simtime/clock.hpp"

#include <algorithm>
#include <utility>

#include "svc/deadlines.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::torque {

namespace {
const util::Logger kLog("pbs_mom");
}  // namespace

PbsMom::PbsMom(vnet::Node& node, MomConfig config, minimpi::Runtime& runtime,
               TaskRegistry& tasks)
    : node_(node), config_(std::move(config)), runtime_(runtime),
      tasks_(tasks) {}

void PbsMom::apply_join_cost() const {
  if (config_.timing.mom_join_cost.count() > 0) {
    simtime::sleep_for(config_.timing.mom_join_cost);
  }
}

void PbsMom::notify_server(MsgType type, util::Bytes body) {
  rpc::notify(*endpoint_, config_.server, type, std::move(body));
}

void PbsMom::run(vnet::Process& proc) {
  endpoint_ = proc.open_endpoint();

  NodeStatus status;
  status.hostname = node_.hostname();
  status.node_id = node_.id();
  status.kind = config_.kind;
  status.np = config_.np;
  status.mom_addr = endpoint_->address();
  util::ByteWriter w;
  put_node_status(w, status);
  try {
    const svc::Caller registrar(proc, config_.server);
    (void)registrar.call(MsgType::kRegisterNode, std::move(w).take(),
                         {.deadline = svc::deadlines::kDefault});
  } catch (const util::StoppedError&) {
    return;
  }
  kLog.info("mom on '{}' registered", node_.hostname());

  util::ByteWriter hb;
  hb.put_string(node_.hostname());
  const auto heartbeat_body = hb.bytes();

  svc::ServiceConfig cfg;
  cfg.name = "pbs_mom." + node_.hostname();
  svc::ServiceLoop loop(*endpoint_, cfg);
  loop_ = &loop;
  register_handlers(loop);
  // Liveness: report to the server even while busy (fault-tolerance
  // extension). Walltime enforcement runs on its own cadence so tests can
  // tighten it without shrinking the liveness window.
  loop.add_tick(config_.timing.mom_heartbeat_interval, [this, heartbeat_body] {
    rpc::notify(*endpoint_, config_.server, MsgType::kMomHeartbeat,
                heartbeat_body);
  });
  const auto walltime_tick =
      config_.timing.mom_walltime_check_interval.count() > 0
          ? config_.timing.mom_walltime_check_interval
          : config_.timing.mom_heartbeat_interval;
  loop.add_tick(walltime_tick, [this] { enforce_walltime(); });
  try {
    loop.run();
  } catch (const util::StoppedError&) {
    // Cooperative kill while a handler was mid-call; normal shutdown.
  }
  loop_ = nullptr;
}

void PbsMom::register_handlers(svc::ServiceLoop& loop) {
  using svc::Request;
  using svc::Responder;

  // Requests: answered now (sister duties) or once their protocol ends
  // (MOM_RUN_JOB, MOM_RELEASE).
  const auto call = [&](MsgType type,
                        void (PbsMom::*fn)(const rpc::Request&, Responder&)) {
    loop.on(type, [this, fn](const Request& req, Responder& resp) {
      (this->*fn)(req, resp);
    });
  };
  // Notifications (no reply expected).
  const auto note = [&](MsgType type,
                        void (PbsMom::*fn)(const rpc::Request&)) {
    loop.on(type, [this, fn](const Request& req, Responder&) {
      (this->*fn)(req);
    });
  };
  call(MsgType::kMomRunJob, &PbsMom::on_run_job);
  call(MsgType::kMomRelease, &PbsMom::on_release);
  note(MsgType::kMomDynAdd, &PbsMom::on_dyn_add);
  note(MsgType::kMomKillJob, &PbsMom::on_kill_job);
  note(MsgType::kTaskDone, &PbsMom::on_task_done);

  call(MsgType::kJoinJob, &PbsMom::on_join);
  call(MsgType::kDynJoinJob, &PbsMom::on_dynjoin);
  call(MsgType::kDisjoinJob, &PbsMom::on_disjoin);
  note(MsgType::kJobUpdate, &PbsMom::on_job_update);
}

// --------------------------------------------------------- mother superior

std::chrono::milliseconds PbsMom::sister_call_timeout() const {
  // A quarter of the down-detection window: unreachable sisters hold this
  // mom's queued MS protocols for well under the time it takes the server
  // to declare them dead and reclaim their slots.
  const auto stale_window =
      config_.timing.mom_heartbeat_interval * config_.timing.heartbeat_stale_factor;
  const auto bound =
      std::chrono::duration_cast<std::chrono::milliseconds>(stale_window) / 4;
  return std::clamp(bound, std::chrono::milliseconds(10), rpc::kDefaultTimeout);
}

util::Bytes PbsMom::set_body(const DynSet& set, bool with_hosts) {
  util::ByteWriter w;
  w.put<std::uint64_t>(set.job);
  w.put<std::uint64_t>(set.client);
  if (with_hosts) put_host_refs(w, set.hosts);
  return std::move(w).take();
}

void PbsMom::run_protocol(std::function<void()> body) {
  queued_.push_back([ctx = trace::current(), body = std::move(body)] {
    const trace::ScopedContext scope(ctx);
    body();
  });
  run_queued();
}

void PbsMom::run_queued() {
  while (!fanning_out_ && !queued_.empty()) {
    const auto step = std::move(queued_.front());
    queued_.pop_front();
    try {
      step();
    } catch (const util::StoppedError&) {
      throw;  // cooperative kill: unwind the loop
    } catch (const std::exception& e) {
      kLog.warn("MS '{}': protocol step failed: {}", node_.hostname(),
                e.what());
    }
  }
}

void PbsMom::call_sisters(const std::vector<HostRef>& hosts, MsgType type,
                          const util::Bytes& body,
                          std::function<void(std::vector<HostRef>)> then) {
  std::vector<HostRef> sisters;
  std::vector<vnet::Address> targets;
  for (const auto& h : hosts) {
    if (h.node == node_.id()) continue;
    sisters.push_back(h);
    targets.push_back(h.mom);
  }
  if (targets.empty()) {
    then({});
    return;
  }
  auto settled = [this, type, sisters = std::move(sisters),
                  then = std::move(then)](
                     std::vector<svc::Outcome> outcomes) mutable {
    std::vector<HostRef> acked;
    for (std::size_t i = 0; i < sisters.size(); ++i) {
      if (outcomes[i].ok()) {
        acked.push_back(std::move(sisters[i]));
        continue;
      }
      kLog.warn("MS '{}': {} to '{}' failed: {}", node_.hostname(),
                svc::msg_type_name(as_u32(type)), sisters[i].hostname,
                outcomes[i].error);
    }
    // The rest of the protocol in flight goes first in line.
    fanning_out_ = false;
    queued_.push_front(
        [then = std::move(then), acked = std::move(acked)]() mutable {
          then(std::move(acked));
        });
    run_queued();
  };
  fanning_out_ = true;
  loop_->call_all(targets, type, body, sister_call_timeout(),
                  std::move(settled));
}

void PbsMom::on_run_job(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  MomJob job;
  job.info = get_job_info(r);
  job.hosts = get_host_refs(r);
  job.is_ms = true;
  trace::note("job", std::to_string(job.info.id));
  run_protocol([this, job = std::move(job), resp]() mutable {
    job.started = simtime::now();
    kLog.info("MS '{}': starting job {}", node_.hostname(), job.info.id);
    // 1. JOIN_JOB with every other mom of the job, all at once; launch only
    // once every sister has acked (paper Figure 5).
    util::ByteWriter body;
    put_job_info(body, job.info);
    put_host_refs(body, job.hosts);
    const auto hosts = job.hosts;
    call_sisters(hosts, MsgType::kJoinJob, body.bytes(),
                 [this, job = std::move(job), resp](
                     std::vector<HostRef> joined) mutable {
                   launch(std::move(job), std::move(joined), resp);
                 });
  });
}

void PbsMom::launch(MomJob job, std::vector<HostRef> joined,
                    const svc::Responder& resp) {
  const auto id = job.info.id;
  // A sister that failed or stayed silent fails the start: the ones that
  // joined are disjoined again and the job completes as killed, which frees
  // its slots at the server. The start's answer follows the completion.
  const auto sisters = std::count_if(
      job.hosts.begin(), job.hosts.end(),
      [this](const HostRef& h) { return h.node != node_.id(); });
  if (std::cmp_not_equal(joined.size(), sisters)) {
    kLog.warn("MS '{}': job {} lost a sister while joining, killing it",
              node_.hostname(), id);
    teardown_job(id, std::move(joined), /*kill_tasks=*/false);
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put<std::int32_t>(kExitKilled);
    notify_server(MsgType::kJobComplete, std::move(w).take());
    resp.error(ReplyCode::kError, "a sister failed to join");
    return;
  }

  // Context of the serve.MOM_RUN_JOB span (already part of the job's submit
  // trace); handed to the spawned worlds so their spans nest under the
  // launch rather than starting fresh traces.
  const auto launch_ctx = trace::current();
  const int k = job.info.spec.resources.nodes;
  const int acpn = job.info.spec.resources.acpn;

  // 2. Start the accelerator daemons: one MPI world per compute node's
  // accelerator set, publishing the per-CN port (paper §III-C).
  for (int cn = 0; cn < k && acpn > 0; ++cn) {
    std::vector<vnet::NodeId> placement;
    util::ByteWriter args;
    args.put_string(static_ac_port_name(id, cn));
    args.put<std::uint64_t>(id);
    args.put<std::uint64_t>(launch_ctx.trace);
    args.put<std::uint64_t>(launch_ctx.span);
    for (int a = 0; a < acpn; ++a) {
      const auto& ref =
          job.hosts[static_cast<std::size_t>(k + cn * acpn + a)];
      placement.push_back(ref.node);
    }
    minimpi::LaunchOptions opts;
    opts.proc_name = "acdaemon-j" + std::to_string(id);
    opts.start_delay = config_.timing.static_daemon_start_delay;
    opts.start_stagger = config_.timing.static_daemon_start_stagger;
    auto handle = runtime_.launch_world(config_.ac_daemon_exe, placement,
                                        std::move(args).take(), opts);
    for (std::size_t i = 0; i < handle.processes.size(); ++i) {
      tasks_.add(id, placement[i], handle.processes[i]);
    }
  }

  // 3. Start the job script on the compute nodes.
  JobLaunchInfo launch;
  launch.job = id;
  launch.program = job.info.spec.program;
  launch.program_args = job.info.spec.program_args;
  launch.nodes = k;
  launch.ppn = job.info.spec.resources.ppn;
  launch.acpn = acpn;
  launch.server = config_.server;
  launch.ms_mom = endpoint_->address();
  launch.compute_hosts.assign(job.hosts.begin(),
                              job.hosts.begin() + k);
  launch.accel_hosts.assign(job.hosts.begin() + k, job.hosts.end());
  launch.trace_id = launch_ctx.trace;
  launch.origin_span = launch_ctx.span;

  std::vector<vnet::NodeId> cn_placement;
  for (int i = 0; i < k; ++i) {
    cn_placement.push_back(job.hosts[static_cast<std::size_t>(i)].node);
  }
  util::ByteWriter wargs;
  put_launch_info(wargs, launch);
  minimpi::LaunchOptions jopts;
  jopts.proc_name = "job" + std::to_string(id);
  jopts.start_delay = config_.timing.job_start_delay;
  jopts.env = {{"PBS_JOBID", std::to_string(id)}};
  auto handle = runtime_.launch_world(config_.job_wrapper_exe, cn_placement,
                                      std::move(wargs).take(), jopts);
  for (std::size_t i = 0; i < handle.processes.size(); ++i) {
    tasks_.add(id, cn_placement[i], handle.processes[i]);
  }

  jobs_[id] = std::move(job);
  resp.ok();
}

void PbsMom::on_dyn_add(const rpc::Request& req) {
  util::ByteReader r(req.body);
  DynSet set;
  set.job = r.get<std::uint64_t>();
  set.dyn = r.get<std::uint64_t>();
  set.client = r.get<std::uint64_t>();
  set.hosts = get_host_refs(r);
  trace::note("job", std::to_string(set.job));
  trace::note("dyn", std::to_string(set.dyn));
  run_protocol([this, set = std::move(set)] {
    if (!jobs_.contains(set.job)) {
      kLog.warn("MS '{}': dyn add for unknown job {}", node_.hostname(),
                set.job);
      return;
    }
    // DYNJOIN_JOB with every newly allocated accelerator mom at once (paper
    // Figure 6); our own record is updated once they answered. Deadline-
    // bounded: a sister wedged (or dead) must not hold this mom's protocols
    // past its own heartbeat window.
    call_sisters(set.hosts, MsgType::kDynJoinJob, set_body(set, true),
                 [this, set](std::vector<HostRef>) { attach_dyn_set(set); });
  });
}

void PbsMom::attach_dyn_set(const DynSet& set) {
  // The job may have completed or been killed while the joins were in
  // flight (it finished its own business before the grant fully attached);
  // the membership update must not resurrect it.
  auto it = jobs_.find(set.job);
  if (it == jobs_.end()) {
    // Gone mid-join: undo the sister-side joins so the granted moms do not
    // keep membership for a dead job. The server reclaims the slots through
    // its own completion path.
    kLog.warn("MS '{}': job {} vanished during dyn add, disjoining set {}",
              node_.hostname(), set.job, set.client);
    call_sisters(set.hosts, MsgType::kDisjoinJob, set_body(set, false),
                 [](std::vector<HostRef>) {});
    return;
  }
  auto& job = it->second;
  job.dyn_sets[set.client] = set.hosts;
  // Update the existing moms' databases with the addition.
  const auto update = set_body(set, true);
  for (const auto& h : job.hosts) {
    if (h.node == node_.id()) continue;
    rpc::notify(*endpoint_, h.mom, MsgType::kJobUpdate, update);
  }
  job.hosts.insert(job.hosts.end(), set.hosts.begin(), set.hosts.end());
}

void PbsMom::on_release(const rpc::Request& req, svc::Responder& resp) {
  util::ByteReader r(req.body);
  DynSet set;
  set.job = r.get<std::uint64_t>();
  set.client = r.get<std::uint64_t>();
  set.hosts = get_host_refs(r);
  run_protocol([this, set = std::move(set), resp] {
    // DISJOIN_JOB: the departing moms kill any remaining daemon tasks and
    // drop their membership (paper §III-D), all of them at once. This holds
    // even when the job already ended here: its TASK_DONE can overtake the
    // release, and the release must still reach each mom of the set and be
    // answered. A sister that died between the release request and the
    // server's down detection cannot answer; the one deadline bounds the
    // wait and the release moves on — the server reclaims its slots once the
    // heartbeat goes stale. Releasing a set that includes this (mother
    // superior) node is handled locally instead of calling ourselves.
    if (std::any_of(set.hosts.begin(), set.hosts.end(),
                    [this](const HostRef& h) {
                      return h.node == node_.id();
                    })) {
      tasks_.kill_node_tasks(set.job, node_.id(), set.client);
    }
    call_sisters(set.hosts, MsgType::kDisjoinJob, set_body(set, false),
                 [this, set, resp](std::vector<HostRef>) {
                   finish_release(set);
                   resp.ok();
                 });
  });
}

void PbsMom::finish_release(const DynSet& set) {
  // Drop the released hosts from the job's membership (at most one entry per
  // released host, so a node the job also holds statically survives) and
  // tell the others. The job may have finished while the DISJOINs were in
  // flight; the release is still done from the server's point of view.
  if (auto it = jobs_.find(set.job); it != jobs_.end()) {
    auto& job = it->second;
    for (const auto& g : set.hosts) {
      auto it2 = std::find_if(
          job.hosts.begin(), job.hosts.end(),
          [&](const HostRef& h) { return h.hostname == g.hostname; });
      if (it2 != job.hosts.end()) job.hosts.erase(it2);
    }
    job.dyn_sets.erase(set.client);
    const auto update = set_body(set, true);
    for (const auto& h : job.hosts) {
      if (h.node == node_.id()) continue;
      rpc::notify(*endpoint_, h.mom, MsgType::kJobUpdate, update);
    }
  }
}

void PbsMom::on_kill_job(const rpc::Request& req) {
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  run_protocol([this, job_id] {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      // Not the MS (or unknown): kill whatever runs locally.
      tasks_.kill_node_tasks(job_id, node_.id());
      return;
    }
    auto hosts = std::move(it->second.hosts);
    jobs_.erase(it);
    teardown_job(job_id, std::move(hosts), /*kill_tasks=*/true);
  });
}

void PbsMom::on_task_done(const rpc::Request& req) {
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto rank = r.get<std::int32_t>();
  run_protocol([this, job_id, rank] {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;
    auto& job = it->second;
    ++job.tasks_done;
    kLog.debug("MS '{}': job {} rank {} done ({}/{})", node_.hostname(),
               job_id, rank, job.tasks_done, job.info.spec.resources.nodes);
    if (job.tasks_done < job.info.spec.resources.nodes) return;
    auto hosts = std::move(job.hosts);
    jobs_.erase(it);
    teardown_job(job_id, std::move(hosts), /*kill_tasks=*/true);
    util::ByteWriter w;
    w.put<std::uint64_t>(job_id);
    w.put<std::int32_t>(kExitOk);
    notify_server(MsgType::kJobComplete, std::move(w).take());
  });
}

void PbsMom::enforce_walltime() {
  if (!config_.enforce_walltime) return;
  const auto now = simtime::now();
  // Runs on a loop-thread tick, which must stay non-blocking: teardown fans
  // out DISJOIN notifies, never calls.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    auto& job = it->second;
    const bool over =
        job.is_ms && job.info.spec.resources.walltime.count() > 0 &&
        now - job.started > job.info.spec.resources.walltime;
    if (!over) {
      ++it;
      continue;
    }
    const auto id = job.info.id;
    auto hosts = std::move(job.hosts);
    it = jobs_.erase(it);
    kLog.warn("MS '{}': job {} exceeded its walltime, killing it",
              node_.hostname(), id);
    teardown_job(id, std::move(hosts), /*kill_tasks=*/true);
    util::ByteWriter w;
    w.put<std::uint64_t>(id);
    w.put<std::int32_t>(kExitWalltime);
    notify_server(MsgType::kJobComplete, std::move(w).take());
  }
}

void PbsMom::teardown_job(JobId id, std::vector<HostRef> hosts,
                          bool kill_tasks) {
  // Fire-and-forget DISJOINs: nothing waits on teardown (completions and
  // kills are already reported through their own paths), and not blocking
  // here lets the walltime tick run this directly on the loop thread. A
  // notify to a dead sister is simply lost; the server reclaims its slots
  // once the heartbeat goes stale.
  util::ByteWriter body;
  body.put<std::uint64_t>(id);
  body.put<std::uint64_t>(0);  // client id 0: whole job
  const auto body_bytes = body.bytes();
  for (const auto& h : hosts) {
    if (h.node == node_.id()) continue;
    rpc::notify(*endpoint_, h.mom, MsgType::kDisjoinJob, body_bytes);
  }
  if (kill_tasks) tasks_.kill_node_tasks(id, node_.id());
  kLog.info("MS '{}': job {} torn down", node_.hostname(), id);
}

// ------------------------------------------------------------------ sister

void PbsMom::on_join(const rpc::Request& req, svc::Responder& resp) {
  apply_join_cost();
  util::ByteReader r(req.body);
  MomJob job;
  job.info = get_job_info(r);
  job.hosts = get_host_refs(r);
  job.is_ms = false;
  kLog.debug("mom '{}': joined job {}", node_.hostname(), job.info.id);
  jobs_[job.info.id] = std::move(job);
  resp.ok();
}

void PbsMom::on_dynjoin(const rpc::Request& req, svc::Responder& resp) {
  apply_join_cost();
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto client_id = r.get<std::uint64_t>();
  auto hosts = get_host_refs(r);
  const auto [it, fresh] = jobs_.try_emplace(job_id);
  auto& job = it->second;
  job.info.id = job_id;
  if (fresh) job.dyn_only = true;
  job.dyn_sets[client_id] = std::move(hosts);
  kLog.debug("mom '{}': DYNJOIN job {} set {}", node_.hostname(), job_id,
             client_id);
  resp.ok();
}

void PbsMom::on_disjoin(const rpc::Request& req, svc::Responder& resp) {
  apply_join_cost();
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto client_id = r.get<std::uint64_t>();
  // Kill the tasks of this job still running here: all of them for a full
  // disjoin (client 0), only the released set's otherwise — a shared
  // compute node must not lose the job script itself.
  tasks_.kill_node_tasks(job_id, node_.id(), client_id);
  if (auto it = jobs_.find(job_id); it != jobs_.end()) {
    auto& job = it->second;
    job.dyn_sets.erase(client_id);
    // A full disjoin ends the job here. So does the release of the last set
    // on this node of a job that is here only through its sets.
    const bool holds_set = std::any_of(
        job.dyn_sets.begin(), job.dyn_sets.end(), [this](const auto& set) {
          return std::any_of(
              set.second.begin(), set.second.end(),
              [this](const HostRef& h) { return h.node == node_.id(); });
        });
    if (client_id == 0 || (job.dyn_only && !holds_set)) jobs_.erase(it);
  }
  kLog.debug("mom '{}': DISJOIN job {} (set {})", node_.hostname(), job_id,
             client_id);
  resp.ok();
}

void PbsMom::on_job_update(const rpc::Request& req) {
  util::ByteReader r(req.body);
  const auto job_id = r.get<std::uint64_t>();
  const auto client_id = r.get<std::uint64_t>();
  auto hosts = get_host_refs(r);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  auto& job = it->second;
  if (job.dyn_sets.contains(client_id)) {
    // Already known: this update is a release of that set.
    std::erase_if(job.hosts, [&](const HostRef& h) {
      return std::any_of(hosts.begin(), hosts.end(), [&](const HostRef& g) {
        return g.hostname == h.hostname;
      });
    });
    job.dyn_sets.erase(client_id);
  } else {
    job.dyn_sets[client_id] = hosts;
    job.hosts.insert(job.hosts.end(), hosts.begin(), hosts.end());
  }
}

}  // namespace dac::torque

#include "core/cluster.hpp"
#include "simtime/clock.hpp"

#include <cstdlib>
#include <thread>

#include "dacc/daemon.hpp"
#include "torque/rpc.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::core {

namespace {
const util::Logger kLog("dac_cluster");

// Background fault plan from the environment (CI's fault-seed job): a
// DELAY-ONLY plan by default, because fire-and-forget notifications
// (TASK_DONE, MOM_RUN_JOB) are not retried, so random drops would wedge
// otherwise-correct runs. Rates are overridable for experiments that do
// want loss.
std::shared_ptr<faults::FaultPlan> plan_from_env() {
  const char* seed_env = std::getenv("DACSCHED_FAULT_SEED");
  if (seed_env == nullptr || *seed_env == '\0') return nullptr;
  const auto read_rate = [](const char* key, double fallback) {
    const char* v = std::getenv(key);
    return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
  };
  faults::FaultRates rates;
  rates.delay = read_rate("DACSCHED_FAULT_DELAY_RATE", 0.05);
  rates.drop = read_rate("DACSCHED_FAULT_DROP_RATE", 0.0);
  rates.duplicate = read_rate("DACSCHED_FAULT_DUP_RATE", 0.0);
  rates.max_extra_delay = std::chrono::microseconds(static_cast<long long>(
      read_rate("DACSCHED_FAULT_MAX_DELAY_US", 500.0)));
  const auto seed =
      static_cast<std::uint64_t>(std::strtoull(seed_env, nullptr, 0));
  kLog.info("fault plan from env: seed={} delay={} drop={} dup={}", seed,
            rates.delay, rates.drop, rates.duplicate);
  return std::make_shared<faults::FaultPlan>(seed, rates);
}
}  // namespace

DacCluster::DacCluster(DacClusterConfig config) : config_(std::move(config)) {
  vnet::ClusterTopology topo;
  topo.node_count = config_.total_nodes();
  topo.network = config_.network;
  topo.process_start_delay = std::chrono::microseconds(0);
  topo.hostnames.push_back("head");
  for (std::size_t i = 0; i < config_.compute_nodes; ++i) {
    topo.hostnames.push_back("cn" + std::to_string(i));
  }
  for (std::size_t i = 0; i < config_.accel_nodes; ++i) {
    topo.hostnames.push_back("ac" + std::to_string(i));
  }
  cluster_ = std::make_unique<vnet::Cluster>(std::move(topo));
  runtime_ = std::make_unique<minimpi::Runtime>(*cluster_);
  devices_ = std::make_unique<dacc::DeviceManager>(config_.device);

  // The server object must exist before the daemon executables register:
  // back-end heartbeats need its address, and the fault plan exports its
  // event counters into the server's metrics registry.
  server_ = std::make_unique<torque::PbsServer>(head(), config_.timing);

  fault_plan_ = config_.fault_plan ? config_.fault_plan : plan_from_env();
  if (fault_plan_) {
    fault_plan_->set_metrics(&server_->metrics());
    cluster_->fabric().set_fault_injector(fault_plan_);
  }

  dacc::BackendHeartbeats heartbeats;
  heartbeats.server = server_->address();
  heartbeats.interval = config_.timing.mom_heartbeat_interval;
  for (std::size_t i = 0; i < config_.accel_nodes; ++i) {
    auto& node = cluster_->node(1 + config_.compute_nodes + i);
    heartbeats.hostnames[node.id()] = node.hostname();
  }
  dacc::register_daemon_executables(*runtime_, *devices_,
                                    std::move(heartbeats));
  register_builtin_executables();

  // Boot the head-node daemons.
  daemons_.push_back(head().spawn(
      {.name = "pbs_server"},
      [this](vnet::Process& proc) { server_->run(proc); }));

  maui::SchedulerConfig sched;
  sched.server = server_->address();
  sched.policy = config_.policy;
  sched.weights = config_.weights;
  sched.timing = config_.timing;
  sched.dynamic_first = config_.dynamic_first;
  sched.dyn_owner_pool_cap = config_.dyn_owner_pool_cap;
  sched.elastic_policy = config_.elastic_policy;
  sched.full_rescan_every = config_.sched_full_rescan_every;
  sched.batched_dyn = config_.sched_batched_dyn;
  scheduler_ = std::make_unique<maui::MauiScheduler>(head(), sched);
  daemons_.push_back(head().spawn(
      {.name = "maui"},
      [this](vnet::Process& proc) { scheduler_->run(proc); }));

  // Boot one pbs_mom per worker node.
  for (std::size_t i = 1; i < cluster_->size(); ++i) {
    auto& node = cluster_->node(i);
    torque::MomConfig mc;
    mc.kind = i <= config_.compute_nodes ? torque::NodeKind::kCompute
                                         : torque::NodeKind::kAccelerator;
    mc.np = mc.kind == torque::NodeKind::kCompute ? 8 : 1;
    mc.server = server_->address();
    mc.timing = config_.timing;
    mc.enforce_walltime = config_.enforce_walltime;
    auto mom = std::make_unique<torque::PbsMom>(node, mc, *runtime_, tasks_);
    auto* mom_ptr = mom.get();
    moms_.push_back(std::move(mom));
    daemons_.push_back(node.spawn(
        {.name = "pbs_mom"},
        [mom_ptr](vnet::Process& proc) { mom_ptr->run(proc); }));
  }

  // Wait until every mom registered so the first submission can schedule.
  auto ifl = client();
  const auto deadline =
      simtime::now() + std::chrono::seconds(10);
  while (ifl.stat_nodes().size() < cluster_->size() - 1) {
    if (simtime::now() > deadline) {
      throw util::ProtocolError("DacCluster: moms did not register in time");
    }
    simtime::sleep_for(std::chrono::milliseconds(1));
  }
  kLog.info("DAC cluster up: {} compute, {} accelerator node(s)",
            config_.compute_nodes, config_.accel_nodes);
}

DacCluster::~DacCluster() { shutdown(); }

void DacCluster::fail_node(std::size_t cluster_index) {
  if (cluster_index == 0 || cluster_index >= cluster_->size()) {
    throw std::invalid_argument("fail_node: not a worker node");
  }
  auto& node = cluster_->node(cluster_index);
  // Crash in the plan first so messages the dying processes still emit while
  // stopping are discarded, like NIC output of a machine losing power.
  if (fault_plan_) fault_plan_->crash_node(node.id());
  node.stop_all_processes();
  kLog.warn("injected failure on '{}'", node.hostname());
}

void DacCluster::recover_node(std::size_t cluster_index) {
  if (cluster_index == 0 || cluster_index >= cluster_->size()) {
    throw std::invalid_argument("recover_node: not a worker node");
  }
  auto* mom = moms_.at(cluster_index - 1).get();
  auto& node = cluster_->node(cluster_index);
  if (fault_plan_) fault_plan_->restart_node(node.id());
  daemons_.push_back(node.spawn(
      {.name = "pbs_mom"},
      [mom](vnet::Process& proc) { mom->run(proc); }));
  kLog.info("mom on '{}' restarted", node.hostname());
}

bool DacCluster::await_node_liveness(const std::string& hostname,
                                     torque::Liveness target,
                                     std::chrono::milliseconds timeout) {
  auto ifl = client();
  const auto deadline = simtime::now() + timeout;
  for (;;) {
    for (const auto& st : ifl.stat_nodes()) {
      if (st.hostname == hostname && st.liveness == target) return true;
    }
    if (simtime::now() > deadline) return false;
    simtime::sleep_for(std::chrono::milliseconds(1));
  }
}

void DacCluster::shutdown() {
  if (down_) return;
  down_ = true;
  cluster_->shutdown();
}

vnet::Node& DacCluster::compute_node(std::size_t i) {
  return cluster_->node(1 + i);
}

vnet::Node& DacCluster::accel_node(std::size_t i) {
  return cluster_->node(1 + config_.compute_nodes + i);
}

const vnet::Address& DacCluster::server_address() const {
  return server_->address();
}

maui::SchedulerStatsSnapshot DacCluster::scheduler_stats() const {
  return scheduler_->stats();
}

svc::MetricsSnapshot DacCluster::metrics_snapshot() const {
  return server_->metrics().snapshot();
}

void DacCluster::register_program(const std::string& name,
                                  JobProgram program) {
  ScopedLock lock(programs_mu_);
  programs_[name] = std::move(program);
}

torque::Ifl DacCluster::client() {
  return torque::Ifl(head(), server_->address());
}

torque::JobId DacCluster::submit(const torque::JobSpec& spec) {
  return client().submit(spec);
}

torque::JobId DacCluster::submit_program(const std::string& program,
                                         int nodes, int acpn,
                                         util::Bytes args,
                                         std::chrono::milliseconds walltime) {
  torque::JobSpec spec;
  spec.name = program;
  spec.program = program;
  spec.program_args = std::move(args);
  spec.resources.nodes = nodes;
  spec.resources.acpn = acpn;
  spec.resources.walltime = walltime;
  return submit(spec);
}

std::optional<torque::JobInfo> DacCluster::wait_job(
    torque::JobId id, std::chrono::milliseconds timeout) {
  auto info =
      client().wait_for_state(id, torque::JobState::kComplete, timeout);
  if (info && info->state == torque::JobState::kComplete) return info;
  return std::nullopt;
}

rmlib::AcSessionConfig DacCluster::session_base() const {
  rmlib::AcSessionConfig base;
  base.server = server_->address();
  base.spawned_daemon_start_delay =
      config_.timing.spawned_daemon_start_delay;
  base.transfer = config_.transfer;
  base.call_timeout = config_.ac_call_timeout;
  base.tasks = const_cast<torque::TaskRegistry*>(&tasks_);
  return base;
}

void DacCluster::register_builtin_executables() {
  // The job wrapper: deserializes the launch info, runs the registered
  // program, and reports TASK_DONE to the mother superior (which triggers
  // job teardown once every rank finished).
  runtime_->register_executable(
      kJobWrapperExe, [this](minimpi::Proc& proc, const util::Bytes& args) {
        util::ByteReader r(args);
        auto info = torque::get_launch_info(r);
        const auto job = info.job;
        const auto ms = info.ms_mom;
        const auto rank = proc.rank();

        // Join the submit trace shipped in the launch info: everything the
        // job script does (rmlib calls, DAC ops, TASK_DONE) nests under one
        // job.run span per rank.
        trace::set_thread_actor("job" + std::to_string(job) + ".r" +
                                std::to_string(rank));
        trace::ScopedContext trace_parent(
            trace::Context{info.trace_id, info.origin_span});
        trace::SpanScope job_span("job.run");
        job_span.note("job", std::to_string(job));
        job_span.note("rank", std::to_string(rank));

        JobProgram program;
        {
          ScopedLock lock(programs_mu_);
          if (auto it = programs_.find(info.program);
              it != programs_.end()) {
            program = it->second;
          }
        }
        if (program) {
          try {
            JobContext ctx(proc, std::move(info), session_base());
            program(ctx);
          } catch (const util::StoppedError&) {
            return;  // killed; the mom handles cleanup
          } catch (const std::exception& e) {
            kLog.error("job {} rank {}: program failed: {}", job, rank,
                       e.what());
          }
        } else {
          kLog.error("job {}: unknown program '{}'", job, info.program);
        }

        util::ByteWriter done;
        done.put<std::uint64_t>(job);
        done.put<std::int32_t>(rank);
        auto ep = proc.process().open_endpoint();
        torque::rpc::notify(*ep, ms, torque::MsgType::kTaskDone,
                            std::move(done).take());
      });

  register_program(kSleepProgram, [](JobContext& ctx) {
    util::ByteReader r(ctx.info().program_args);
    const auto ms = r.remaining() >= sizeof(std::uint64_t)
                        ? r.get<std::uint64_t>()
                        : 10;
    interruptible_sleep(ctx, std::chrono::milliseconds(ms));
  });
  register_program(kNoopProgram, [](JobContext&) {});
}

}  // namespace dac::core

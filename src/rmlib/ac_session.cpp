#include "rmlib/ac_session.hpp"

#include <thread>

#include "trace/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::rmlib {

namespace {
const util::Logger kLog("rmlib");
}

AcSession::AcSession(minimpi::Proc& proc, AcSessionConfig config)
    : proc_(proc),
      config_(std::move(config)),
      ifl_(proc.process(), config_.server) {
  // Before AC_Init the session's communicator is the compute node alone.
  current_ = proc_.self();
  if (config_.transfer.reply_timeout.count() == 0) {
    config_.transfer.reply_timeout = config_.call_timeout;
  }
}

AcSession::~AcSession() {
  if (initialized_ && !finalized_) {
    try {
      ac_finalize();
    } catch (const std::exception& e) {
      kLog.warn("AC_Finalize in destructor failed: {}", e.what());
    }
  }
}

std::vector<AcHandle> AcSession::ac_init(InitTiming* timing) {
  if (initialized_) throw util::ProtocolError("AC_Init called twice");
  initialized_ = true;
  trace::SpanScope span("ac.init");
  span.note("job", std::to_string(config_.job));

  if (config_.static_count <= 0) {
    if (timing != nullptr) *timing = InitTiming{};
    return {};
  }

  const auto port =
      torque::static_ac_port_name(config_.job, config_.cn_index);

  // Waiting phase: the daemons publish the port only once all of them are
  // up (they barrier first), so waiting for the port measures exactly the
  // "waiting until the daemons were prepared" share of Figure 7(a).
  util::Stopwatch watch;
  (void)proc_.runtime().await_port(port, std::nullopt, proc_.process());
  const double waiting_s = watch.lap_seconds();

  // Connect phase: MPI_Comm_connect + MPI_Intercomm_merge. The compute node
  // is the low group, so it gets rank 0 and the daemons ranks 1..x.
  minimpi::Comm inter = proc_.comm_connect(port, proc_.self(), 0);
  current_ = proc_.intercomm_merge(inter, /*high=*/false);
  const double connect_s = watch.lap_seconds();

  if (timing != nullptr) *timing = InitTiming{waiting_s, connect_s};
  kLog.debug("AC_Init: {} accelerator(s), wait {}s connect {}s",
             config_.static_count, waiting_s, connect_s);

  std::vector<AcHandle> handles;
  for (int rank = 1; rank < current_.size(); ++rank) {
    handles.push_back(AcHandle{rank});
  }
  return handles;
}

void AcSession::broadcast_control(int tag, const util::Bytes& payload) {
  for (int rank = 1; rank < current_.size(); ++rank) {
    proc_.send(current_, rank, tag, payload);
  }
}

GetResult AcSession::ac_get(int count, int min_count) {
  if (!initialized_) throw util::ProtocolError("AC_Get before AC_Init");
  trace::SpanScope span("ac.get");
  span.note("job", std::to_string(config_.job));
  span.note("count", std::to_string(count));
  GetResult result;

  // Batch-system phase: pbs_dynget() blocks until the server has scheduled
  // (or rejected) the request — the dominant share of Figure 7(b).
  util::Stopwatch watch;
  result.reply = ifl_.dynget(config_.job, count, min_count);
  result.batch_s = watch.lap_seconds();
  result.granted = result.reply.granted;
  result.client_id = result.reply.client_id;
  if (!result.granted) {
    // Rejected: the application continues with its current accelerator set
    // (paper §II-B).
    kLog.debug("AC_Get({}) rejected by the batch system", count);
    return result;
  }

  // MPI phase: every existing member participates in the spawn and merge so
  // the new accelerators are appended as ranks x+1..x+y (paper §III-D).
  std::vector<vnet::NodeId> placement(result.reply.host_nodes.begin(),
                                      result.reply.host_nodes.end());
  result.handles = attach_set(result.client_id, placement);
  result.mpi_s = watch.lap_seconds();
  span.note("granted", std::to_string(result.handles.size()));
  kLog.debug("AC_Get({}): granted {} (client {}, batch {}s, mpi {}s)", count,
             result.handles.size(), result.client_id, result.batch_s,
             result.mpi_s);
  return result;
}

std::vector<AcHandle> AcSession::attach_set(
    std::uint64_t client_id, const std::vector<vnet::NodeId>& placement) {
  trace::SpanScope span("ac.attach");
  span.note("client", std::to_string(client_id));
  util::ByteWriter prep;
  prep.put_string(config_.spawned_daemon_exe);
  broadcast_control(dacc::kCtlPrepSpawn, prep.bytes());

  minimpi::LaunchOptions opts;
  opts.proc_name = "acdaemon-dyn-j" + std::to_string(config_.job);
  opts.start_delay = config_.spawned_daemon_start_delay;
  minimpi::WorldHandle children;
  // Only the root's args reach the spawned world; ship the attach span's
  // context so the dynamic daemons' spans join this trace.
  util::ByteWriter spawn_args;
  spawn_args.put<std::uint64_t>(span.context().trace);
  spawn_args.put<std::uint64_t>(span.context().span);
  minimpi::Comm inter =
      proc_.comm_spawn(current_, 0, config_.spawned_daemon_exe,
                       std::move(spawn_args).take(), placement,
                       &children, opts);
  if (config_.tasks != nullptr) {
    for (std::size_t i = 0; i < children.processes.size(); ++i) {
      config_.tasks->add(config_.job, placement[i], children.processes[i],
                         client_id);
    }
  }

  Generation gen;
  gen.client_id = client_id;
  gen.inter = inter;
  gen.previous = current_;
  gen.first_rank = current_.size();
  gen.count = static_cast<int>(placement.size());

  current_ = proc_.intercomm_merge(inter, /*high=*/false);

  std::vector<AcHandle> handles;
  for (int i = 0; i < gen.count; ++i) {
    handles.push_back(AcHandle{gen.first_rank + i});
  }
  generations_.push_back(std::move(gen));
  return handles;
}

void AcSession::ac_free(std::uint64_t client_id) {
  trace::SpanScope span("ac.free");
  span.note("job", std::to_string(config_.job));
  span.note("client", std::to_string(client_id));
  release_newest(client_id, /*send_dynfree=*/true);
}

void AcSession::ac_report_lost(std::uint64_t client_id) {
  trace::SpanScope span("ac.report_lost");
  span.note("job", std::to_string(config_.job));
  span.note("client", std::to_string(client_id));
  if (generations_.empty() || generations_.back().client_id != client_id) {
    throw util::ProtocolError(
        "AC_ReportLost: dynamic sets are released as sets, newest first "
        "(client id " + std::to_string(client_id) + " is not the newest)");
  }
  Generation gen = std::move(generations_.back());
  generations_.pop_back();

  // Survivors pop the generation without any collective disconnect; dead
  // members never see the message (the fabric drops it) and live stragglers
  // of the lost set just exit.
  util::ByteWriter w;
  w.put<std::int32_t>(gen.first_rank);
  broadcast_control(dacc::kCtlAbandon, w.bytes());
  current_ = gen.previous;

  // Best-effort: the server reclaims slots of down accelerators on its own,
  // so the set may already be unknown — that is success, not failure.
  try {
    ifl_.dynfree(config_.job, client_id);
  } catch (const util::ProtocolError& e) {  // CallError / DeadlineError
    kLog.debug("AC_ReportLost: dynfree for client {} says '{}' (server "
               "already reclaimed)",
               client_id, e.what());
  }
  kLog.info("AC_ReportLost: abandoned client {} ({} accelerator(s))",
            client_id, gen.count);
}

std::vector<AcHandle> AcSession::ac_attach(
    std::uint64_t client_id, const std::vector<vnet::NodeId>& placement) {
  if (!initialized_) throw util::ProtocolError("AC_Attach before AC_Init");
  kLog.debug("AC_Attach: client {} ({} accelerator(s), elastic grow)",
             client_id, placement.size());
  return attach_set(client_id, placement);
}

void AcSession::ac_detach(std::uint64_t client_id) {
  trace::SpanScope span("ac.detach");
  span.note("job", std::to_string(config_.job));
  span.note("client", std::to_string(client_id));
  if (generations_.empty() || generations_.back().client_id != client_id) {
    throw util::ProtocolError(
        "AC_Detach: dynamic sets are released as sets, newest first "
        "(client id " + std::to_string(client_id) + " is not the newest)");
  }
  Generation gen = std::move(generations_.back());
  generations_.pop_back();

  // Survivors pop the generation; the released daemons exit on the abandon
  // control (or are killed by the mother superior's release protocol, which
  // the server started when the shrink committed).
  util::ByteWriter w;
  w.put<std::int32_t>(gen.first_rank);
  broadcast_control(dacc::kCtlAbandon, w.bytes());
  current_ = gen.previous;
  kLog.info("AC_Detach: dropped client {} ({} accelerator(s))", client_id,
            gen.count);
}

void AcSession::release_newest(std::uint64_t client_id, bool send_dynfree) {
  if (generations_.empty() || generations_.back().client_id != client_id) {
    throw util::ProtocolError(
        "AC_Free: dynamic sets are released as sets, newest first "
        "(client id " + std::to_string(client_id) + " is not the newest)");
  }
  Generation gen = std::move(generations_.back());
  generations_.pop_back();

  // Tell every daemon on the current communicator; released ones disconnect
  // and exit, survivors fall back to the previous communicator.
  util::ByteWriter w;
  w.put<std::int32_t>(gen.first_rank);
  broadcast_control(dacc::kCtlRelease, w.bytes());

  // MPI_Comm_disconnect from the released set (collective with both sides),
  // then pbs_dynfree() — the paper's ordering.
  proc_.disconnect(gen.inter);
  current_ = gen.previous;
  if (send_dynfree) ifl_.dynfree(config_.job, client_id);
  kLog.debug("AC_Free: released client {} ({} accelerator(s))", client_id,
             gen.count);
}

GetResult AcSession::ac_get_collective(const minimpi::Comm& cn_world,
                                       int count) {
  if (!initialized_) throw util::ProtocolError("AC_Get before AC_Init");
  GetResult result;
  util::Stopwatch watch;

  // Rank 0 collects every node's requirement and sends a single request for
  // the total (paper §III-D).
  util::ByteWriter contrib;
  contrib.put<std::int32_t>(count);
  auto counts = proc_.gather(cn_world, 0, contrib.bytes());

  util::Bytes packed;
  if (cn_world.rank == 0) {
    int total = 0;
    std::vector<std::int32_t> per_cn(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      util::ByteReader r(counts[i]);
      per_cn[i] = r.get<std::int32_t>();
      total += per_cn[i];
    }
    auto reply = ifl_.dynget(config_.job, total);
    util::ByteWriter w;
    torque::put_dynget_reply(w, reply);
    w.put_vector<std::int32_t>(per_cn);
    packed = std::move(w).take();
  }
  proc_.bcast(cn_world, 0, packed);

  util::ByteReader r(packed);
  result.reply = torque::get_dynget_reply(r);
  const auto per_cn = r.get_vector<std::int32_t>();
  result.granted = result.reply.granted;
  result.client_id = result.reply.client_id;
  result.batch_s = watch.lap_seconds();
  if (!result.granted) return result;  // all-or-nothing

  // Each compute node attaches its slice of the allocated hosts.
  std::size_t offset = 0;
  for (int rank = 0; rank < cn_world.rank; ++rank) {
    offset += static_cast<std::size_t>(per_cn[static_cast<std::size_t>(rank)]);
  }
  std::vector<vnet::NodeId> placement;
  for (int i = 0; i < count; ++i) {
    placement.push_back(result.reply.host_nodes[offset + i]);
  }
  if (count > 0) {
    result.handles = attach_set(result.client_id, placement);
  }
  result.mpi_s = watch.lap_seconds();
  return result;
}

void AcSession::ac_free_collective(const minimpi::Comm& cn_world,
                                   std::uint64_t client_id) {
  // Every node releases its slice; the single pbs_dynfree goes out once all
  // of them disconnected (they share one client-id).
  if (!generations_.empty() &&
      generations_.back().client_id == client_id) {
    release_newest(client_id, /*send_dynfree=*/false);
  }
  proc_.barrier(cn_world);
  if (cn_world.rank == 0) ifl_.dynfree(config_.job, client_id);
}

void AcSession::ac_finalize() {
  if (!initialized_ || finalized_) return;
  finalized_ = true;
  trace::SpanScope span("ac.finalize");
  span.note("job", std::to_string(config_.job));
  if (current_.size() > 1) {
    broadcast_control(dacc::kCtlShutdown, {});
    proc_.barrier(current_);
  }
  generations_.clear();
  current_ = proc_.self();
  kLog.debug("AC_Finalize done");
}

std::vector<AcHandle> AcSession::handles() const {
  std::vector<AcHandle> out;
  for (int rank = 1; rank < current_.size(); ++rank) {
    out.push_back(AcHandle{rank});
  }
  return out;
}

void AcSession::check_handle(AcHandle ac) const {
  if (!initialized_ || finalized_ || !ac.valid() ||
      ac.rank >= current_.size()) {
    throw util::ProtocolError("invalid accelerator handle");
  }
}

gpusim::DevicePtr AcSession::ac_mem_alloc(AcHandle ac, std::uint64_t size) {
  check_handle(ac);
  return dacc::frontend::mem_alloc(proc_, current_, ac.rank, size,
                                   config_.call_timeout);
}

void AcSession::ac_mem_free(AcHandle ac, gpusim::DevicePtr ptr) {
  check_handle(ac);
  dacc::frontend::mem_free(proc_, current_, ac.rank, ptr,
                           config_.call_timeout);
}

void AcSession::ac_memcpy_h2d(AcHandle ac, gpusim::DevicePtr dst,
                              std::span<const std::byte> src) {
  check_handle(ac);
  dacc::frontend::memcpy_h2d(proc_, current_, ac.rank, dst, src,
                             config_.transfer);
}

util::Bytes AcSession::ac_memcpy_d2h(AcHandle ac, gpusim::DevicePtr src,
                                     std::uint64_t size) {
  check_handle(ac);
  return dacc::frontend::memcpy_d2h(proc_, current_, ac.rank, src, size,
                                    config_.transfer);
}

dacc::KernelHandle AcSession::ac_kernel_create(AcHandle ac,
                                               const std::string& name) {
  check_handle(ac);
  return dacc::frontend::kernel_create(proc_, current_, ac.rank, name,
                                       config_.call_timeout);
}

void AcSession::ac_kernel_set_args(AcHandle ac, dacc::KernelHandle kernel,
                                   util::Bytes args) {
  check_handle(ac);
  dacc::frontend::kernel_set_args(proc_, current_, ac.rank, kernel,
                                  std::move(args), config_.call_timeout);
}

void AcSession::ac_kernel_run(AcHandle ac, dacc::KernelHandle kernel,
                              gpusim::Dim3 grid, gpusim::Dim3 block) {
  check_handle(ac);
  dacc::frontend::kernel_run(proc_, current_, ac.rank, kernel, grid, block,
                             config_.call_timeout);
}

dacc::frontend::DeviceInfo AcSession::ac_device_info(AcHandle ac) {
  check_handle(ac);
  return dacc::frontend::device_info(proc_, current_, ac.rank,
                                     config_.call_timeout);
}

}  // namespace dac::rmlib

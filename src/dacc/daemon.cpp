#include "dacc/daemon.hpp"

#include <vector>

#include "dacc/protocol.hpp"
#include "minimpi/proc.hpp"
#include "svc/wire.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "vnet/node.hpp"

namespace dac::dacc {

namespace {

const util::Logger kLog("ac_daemon");

using gpusim::Device;
using gpusim::DevicePtr;
using minimpi::Comm;
using minimpi::Proc;
namespace driver = gpusim::driver;

util::Bytes status_reply(Status s) {
  util::ByteWriter w;
  w.put_enum(s);
  return std::move(w).take();
}

const char* op_name(int tag) {
  switch (tag) {
    case kOpMemAlloc: return "acd.mem_alloc";
    case kOpMemFree: return "acd.mem_free";
    case kOpMemcpyH2D: return "acd.memcpy_h2d";
    case kOpMemcpyD2H: return "acd.memcpy_d2h";
    case kOpKernelCreate: return "acd.kernel_create";
    case kOpKernelSetArgs: return "acd.kernel_set_args";
    case kOpKernelRun: return "acd.kernel_run";
    case kOpStencilRun: return "acd.stencil_run";
    case kOpDeviceInfo: return "acd.device_info";
  }
  return "acd.op";
}

// Daemon-side kernel objects: acKernelCreate returns a handle, SetArgs
// stages arguments, Run launches (paper Listing 1).
struct KernelSlot {
  std::string name;
  util::Bytes args;
};

struct ServeState {
  Comm merged;
  std::map<std::uint32_t, KernelSlot> kernels;
  std::uint32_t next_kernel = 1;
  // One entry per dynamic generation this daemon participated in as a
  // parent: the spawn intercomm and the merged comm it superseded.
  std::vector<std::pair<Comm, Comm>> generations;
};

void handle_op(Proc& proc, ServeState& st, Device& device, int tag,
               const util::Bytes& payload) {
  // One span per backend operation, nested under the daemon's acd.serve
  // span (the thread's ambient context inside the serve loop).
  trace::SpanScope span(op_name(tag));
  util::ByteReader r(payload);
  switch (tag) {
    case kOpMemAlloc: {
      const auto size = r.get<std::uint64_t>();
      DevicePtr ptr = gpusim::kNullPtr;
      const auto s = driver::mem_alloc(device, size, &ptr);
      util::ByteWriter w;
      w.put_enum(s);
      w.put<std::uint64_t>(ptr);
      proc.send(st.merged, 0, reply_tag(tag), std::move(w).take());
      return;
    }
    case kOpMemFree: {
      const auto ptr = r.get<std::uint64_t>();
      proc.send(st.merged, 0, reply_tag(tag),
                status_reply(driver::mem_free(device, ptr)));
      return;
    }
    case kOpMemcpyH2D: {
      const auto hdr = get_chunk_header(r);
      const auto data = r.get_bytes();
      const auto s = driver::memcpy_h2d(device, hdr.dptr + hdr.offset,
                                        data.data(), data.size());
      // Pipelined transfers acknowledge only the final chunk.
      if (hdr.ack_each || hdr.last) {
        proc.send(st.merged, 0, reply_tag(tag), status_reply(s));
      }
      return;
    }
    case kOpMemcpyD2H: {
      // Streamed back in chunks so large device-to-host transfers pipeline
      // through the interconnect like the H2D path.
      const auto ptr = r.get<std::uint64_t>();
      const auto size = r.get<std::uint64_t>();
      const auto chunk = std::max<std::uint64_t>(1, r.get<std::uint64_t>());
      std::uint64_t offset = 0;
      do {
        const auto n = std::min(chunk, size - offset);
        util::Bytes data(n);
        const auto s =
            driver::memcpy_d2h(device, data.data(), ptr + offset, n);
        const bool last = s != Status::kSuccess || offset + n >= size;
        util::ByteWriter w;
        w.put_enum(s);
        w.put<std::uint64_t>(offset);
        w.put_bool(last);
        w.put_bytes(data);
        proc.send(st.merged, 0, reply_tag(tag), std::move(w).take());
        if (last) return;
        offset += n;
      } while (offset < size);
      return;
    }
    case kOpKernelCreate: {
      const auto name = r.get_string();
      util::ByteWriter w;
      if (!device.has_kernel(name)) {
        w.put_enum(Status::kNotFound);
        w.put<std::uint32_t>(0);
      } else {
        const auto handle = st.next_kernel++;
        st.kernels[handle] = KernelSlot{name, {}};
        w.put_enum(Status::kSuccess);
        w.put<std::uint32_t>(handle);
      }
      proc.send(st.merged, 0, reply_tag(tag), std::move(w).take());
      return;
    }
    case kOpKernelSetArgs: {
      const auto handle = r.get<std::uint32_t>();
      auto it = st.kernels.find(handle);
      if (it == st.kernels.end()) {
        proc.send(st.merged, 0, reply_tag(tag),
                  status_reply(Status::kInvalidValue));
        return;
      }
      it->second.args = r.get_bytes();
      proc.send(st.merged, 0, reply_tag(tag),
                status_reply(Status::kSuccess));
      return;
    }
    case kOpKernelRun: {
      const auto handle = r.get<std::uint32_t>();
      gpusim::Dim3 grid{r.get<std::uint32_t>(), r.get<std::uint32_t>(),
                        r.get<std::uint32_t>()};
      gpusim::Dim3 block{r.get<std::uint32_t>(), r.get<std::uint32_t>(),
                         r.get<std::uint32_t>()};
      auto it = st.kernels.find(handle);
      if (it == st.kernels.end()) {
        proc.send(st.merged, 0, reply_tag(tag),
                  status_reply(Status::kInvalidValue));
        return;
      }
      const auto s = driver::launch_kernel(device, it->second.name, grid,
                                           block, it->second.args);
      proc.send(st.merged, 0, reply_tag(tag), status_reply(s));
      return;
    }
    case kOpStencilRun: {
      // Cooperative Jacobi iterations: halo exchange with neighbour daemons
      // directly over the merged communicator, then a local smoothing step.
      // Neighbour ranks of -1 mean a fixed boundary value instead.
      const auto field = r.get<std::uint64_t>();
      const auto n = r.get<std::uint64_t>();
      const auto left = r.get<std::int32_t>();
      const auto right = r.get<std::int32_t>();
      const auto iters = r.get<std::uint32_t>();
      const auto boundary_left = r.get<double>();
      const auto boundary_right = r.get<double>();

      Status status = Status::kSuccess;
      try {
        auto* u = reinterpret_cast<double*>(
            device.at(field, n * sizeof(double)));
        std::vector<double> next(n);
        for (std::uint32_t it = 0; it < iters; ++it) {
          // Exchange edge cells with the neighbours. Sends are non-blocking
          // in this MPI, so the symmetric exchange cannot deadlock.
          double halo_left = boundary_left;
          double halo_right = boundary_right;
          if (left >= 0) {
            util::ByteWriter w;
            w.put<double>(u[0]);
            proc.send(st.merged, left, kTagHalo, std::move(w).take());
          }
          if (right >= 0) {
            util::ByteWriter w;
            w.put<double>(u[n - 1]);
            proc.send(st.merged, right, kTagHalo, std::move(w).take());
          }
          if (left >= 0) {
            auto msg = proc.recv(st.merged, left, kTagHalo);
            util::ByteReader hr(msg.data);
            halo_left = hr.get<double>();
          }
          if (right >= 0) {
            auto msg = proc.recv(st.merged, right, kTagHalo);
            util::ByteReader hr(msg.data);
            halo_right = hr.get<double>();
          }
          for (std::uint64_t i = 0; i < n; ++i) {
            const double l = i == 0 ? halo_left : u[i - 1];
            const double rr = i + 1 == n ? halo_right : u[i + 1];
            next[i] = 0.5 * (l + rr);
          }
          std::copy(next.begin(), next.end(), u);
        }
      } catch (const gpusim::DeviceError&) {
        status = Status::kInvalidValue;
      }
      proc.send(st.merged, 0, reply_tag(tag), status_reply(status));
      return;
    }
    case kOpDeviceInfo: {
      util::ByteWriter w;
      w.put_enum(Status::kSuccess);
      w.put_string(device.config().name);
      w.put<std::uint64_t>(device.bytes_free());
      proc.send(st.merged, 0, reply_tag(tag), std::move(w).take());
      return;
    }
    default:
      kLog.warn("daemon rank {}: unknown op tag {}", st.merged.rank, tag);
  }
}

}  // namespace

void serve(Proc& proc, Comm merged, gpusim::Device& device,
           const ServeOptions& options) {
  // The communicator this daemon was attached through: its disconnect target
  // when the daemon's own set is released.
  const Comm origin =
      proc.parent_comm().has_value() ? *proc.parent_comm() : Comm{};

  ServeState st;
  st.merged = std::move(merged);

  // Backend heartbeats: sent whenever the serve loop has been idle for one
  // interval, and only then — the node's mom already beats from boot, so a
  // daemon that lives less than an interval adds no server traffic. A
  // daemon busy with a long kernel beats less often — that is what the
  // server's generous stale factor absorbs.
  const bool heartbeats = options.server.valid() &&
                          options.heartbeat_interval.count() > 0 &&
                          !options.hostname.empty();
  std::unique_ptr<vnet::Endpoint> hb_ep;
  if (heartbeats) {
    hb_ep = proc.process().node().open_endpoint();
    proc.process().adopt_mailbox(hb_ep->mailbox_weak());
  }
  const auto send_heartbeat = [&] {
    // Detach from the job's trace: heartbeats are periodic background
    // traffic whose count is timing-dependent — letting them join would
    // make golden traces nondeterministic.
    trace::ScopedContext detached{trace::Context{}};
    util::ByteWriter w;
    w.put_string(options.hostname);
    svc::notify(*hb_ep, options.server, torque::MsgType::kBackendHeartbeat,
                std::move(w).take());
  };
  const auto next_msg = [&]() -> minimpi::RecvResult {
    if (!heartbeats) return proc.recv(st.merged, 0, minimpi::kAnyTag);
    while (true) {
      auto msg = proc.recv_for(st.merged, 0, minimpi::kAnyTag,
                               options.heartbeat_interval);
      if (msg) return std::move(*msg);
      send_heartbeat();
    }
  };

  while (true) {
    auto msg = next_msg();
    switch (msg.tag) {
      case kCtlPrepSpawn: {
        // The compute node is about to MPI_Comm_spawn a new daemon set; all
        // existing daemons participate collectively and re-merge.
        util::ByteReader r(msg.data);
        const auto exe = r.get_string();
        Comm inter = proc.comm_spawn(st.merged, 0, exe, {}, {});
        Comm next = proc.intercomm_merge(inter, /*high=*/false);
        st.generations.emplace_back(std::move(inter), st.merged);
        st.merged = std::move(next);
        break;
      }
      case kCtlRelease: {
        util::ByteReader r(msg.data);
        const auto boundary = r.get<std::int32_t>();
        if (st.merged.rank >= boundary) {
          // This daemon belongs to the released set: disconnect from the
          // parent side and exit; the mom's DISJOIN will reap the process.
          if (origin.context != minimpi::kControlContext) {
            proc.disconnect(origin);
          }
          // The accelerator goes back to the pool: wipe its allocations so
          // the next holder sees a clean device (elastic shrink hands the
          // node straight to another job).
          device.mem_reset();
          kLog.debug("daemon rank {} released", st.merged.rank);
          return;
        }
        // Survivor: synchronize the release and fall back to the previous
        // communicator (handles of surviving accelerators keep their ranks).
        if (st.generations.empty()) {
          kLog.warn("daemon rank {}: release with no generation to pop",
                    st.merged.rank);
          break;
        }
        auto [inter, prev] = std::move(st.generations.back());
        st.generations.pop_back();
        proc.disconnect(inter);
        st.merged = std::move(prev);
        break;
      }
      case kCtlAbandon: {
        // Release of a set whose daemons died. No collective disconnect
        // anywhere — a dead peer would hang it; the vnet reaps the dead
        // processes and the fabric drops traffic to them.
        util::ByteReader r(msg.data);
        const auto boundary = r.get<std::int32_t>();
        if (st.merged.rank >= boundary) {
          device.mem_reset();
          kLog.debug("daemon rank {} abandoned", st.merged.rank);
          return;
        }
        if (st.generations.empty()) {
          kLog.warn("daemon rank {}: abandon with no generation to pop",
                    st.merged.rank);
          break;
        }
        auto [inter, prev] = std::move(st.generations.back());
        st.generations.pop_back();
        st.merged = std::move(prev);
        break;
      }
      case kCtlShutdown: {
        proc.barrier(st.merged);
        kLog.debug("daemon rank {} shut down", st.merged.rank);
        return;
      }
      default:
        handle_op(proc, st, device, msg.tag, msg.data);
    }
  }
}

void register_daemon_executables(minimpi::Runtime& runtime,
                                 DeviceManager& devices,
                                 BackendHeartbeats heartbeats) {
  const auto options_for = [heartbeats](vnet::NodeId node) {
    ServeOptions options;
    if (auto it = heartbeats.hostnames.find(node);
        it != heartbeats.hostnames.end()) {
      options.server = heartbeats.server;
      options.hostname = it->second;
      options.heartbeat_interval = heartbeats.interval;
    }
    return options;
  };

  // Both executables read an optional trailing {trace-id, parent-span} pair
  // from their launch args (mom / rmlib append it) so the daemon's spans
  // join the trace of whatever launched it.
  const auto read_trace_ctx = [](util::ByteReader& r) {
    trace::Context ctx;
    if (r.remaining() >= 2 * sizeof(std::uint64_t)) {
      ctx.trace = r.get<std::uint64_t>();
      ctx.span = r.get<std::uint64_t>();
    }
    return ctx;
  };

  runtime.register_executable(
      kStaticDaemonExe,
      [&devices, options_for, read_trace_ctx](Proc& proc,
                                              const util::Bytes& args) {
        util::ByteReader r(args);
        const auto port = r.get_string();
        std::uint64_t job = 0;
        if (r.remaining() >= sizeof(std::uint64_t)) {
          job = r.get<std::uint64_t>();
        }
        trace::set_thread_actor("acd@" + proc.process().node().hostname());
        trace::ScopedContext trace_parent(read_trace_ctx(r));
        trace::SpanScope span("acd.serve");
        if (job != 0) span.note("job", std::to_string(job));
        auto& device = devices.device_for(proc.process().node().id());
        // All daemons of the set must be up before the port appears — the
        // compute node's AC_Init waits exactly for this (Figure 7(a)).
        proc.barrier(proc.world());
        if (proc.rank() == 0) proc.publish_port(port);
        // The port is the job's: it closes when these daemons end, whether
        // the job connected or never did (MPI_Close_port).
        struct ClosePort {
          Proc& proc;
          const std::string& port;
          ~ClosePort() {
            if (proc.rank() == 0) proc.runtime().close_port(port);
          }
        } close_port{proc, port};
        Comm inter = proc.comm_accept(port, proc.world(), 0);
        Comm merged = proc.intercomm_merge(inter, /*high=*/true);
        serve(proc, std::move(merged), device,
              options_for(proc.process().node().id()));
      });

  runtime.register_executable(
      kSpawnedDaemonExe,
      [&devices, options_for, read_trace_ctx](Proc& proc,
                                              const util::Bytes& args) {
        util::ByteReader r(args);
        trace::set_thread_actor("acd@" + proc.process().node().hostname());
        trace::ScopedContext trace_parent(read_trace_ctx(r));
        trace::SpanScope span("acd.serve");
        auto& device = devices.device_for(proc.process().node().id());
        Comm merged = proc.intercomm_merge(*proc.parent_comm(),
                                           /*high=*/true);
        serve(proc, std::move(merged), device,
              options_for(proc.process().node().id()));
      });
}

}  // namespace dac::dacc

// MPI-2 dynamic process management: ports + accept/connect (the paper's
// static allocation path), comm_spawn (dynamic allocation path),
// intercomm_merge and disconnect. Handshakes run over the control context so
// every step is charged real network latency by the fabric.
#include <thread>

#include "simtime/clock.hpp"
#include "minimpi/proc.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::minimpi {

namespace {
const util::Logger kLog("minimpi.dpm");

// Canonical orientation for an intercomm-wide barrier when no merge order is
// given (disconnect): the group whose rank-0 address sorts lower goes first.
bool local_is_canonical_low(const Comm& inter) {
  return inter.local.members.front() < inter.remote.members.front();
}

}  // namespace

std::string Proc::open_port() { return runtime_.open_port(address()); }

void Proc::publish_port(const std::string& name) {
  runtime_.publish_port(name, address());
}

Comm Proc::comm_accept(const std::string& port, const Comm& comm, int root) {
  std::uint32_t new_context = 0;
  Group remote;
  if (comm.rank == root) {
    auto req = recv_stored([&](const Stored& s) {
      if (s.context != kControlContext || s.tag != kTagConnectReq) {
        return false;
      }
      util::ByteReader r(s.data);
      return r.get_string() == port;
    });
    util::ByteReader r(req.data);
    (void)r.get_string();  // port name, already matched
    remote = get_group(r);

    new_context = runtime_.allocate_context();
    util::ByteWriter w;
    w.put<std::uint32_t>(new_context);
    put_group(w, comm.local);
    send_control(req.from, kTagConnectAck, std::move(w).take());

    util::ByteWriter bw;
    bw.put<std::uint32_t>(new_context);
    put_group(bw, remote);
    util::Bytes packed = std::move(bw).take();
    bcast(comm, root, packed);
  } else {
    util::Bytes packed;
    bcast(comm, root, packed);
    util::ByteReader r(packed);
    new_context = r.get<std::uint32_t>();
    remote = get_group(r);
  }

  Comm inter;
  inter.context = new_context;
  inter.local = comm.local;
  inter.remote = std::move(remote);
  inter.rank = comm.rank;
  return inter;
}

Comm Proc::comm_connect(const std::string& port, const Comm& comm, int root,
                        std::chrono::milliseconds timeout) {
  std::uint32_t new_context = 0;
  Group remote;
  if (comm.rank == root) {
    // Resolve the port name, waiting for the accept side to publish it (the
    // paper's compute node likewise waits for the daemons' port file). This
    // wait is the dominant share of Figure 7(a)'s AC_Init time.
    const auto accept_root =
        runtime_.await_port(port, simtime::now() + timeout, process_);
    if (!accept_root) {
      throw util::ProtocolError("comm_connect: port '" + port +
                                "' not published within timeout");
    }

    util::ByteWriter w;
    w.put_string(port);
    put_group(w, comm.local);
    send_control(*accept_root, kTagConnectReq, std::move(w).take());

    auto ack = recv_stored([&](const Stored& s) {
      return s.context == kControlContext && s.tag == kTagConnectAck &&
             s.from == *accept_root;
    });
    util::ByteReader r(ack.data);
    new_context = r.get<std::uint32_t>();
    remote = get_group(r);

    util::ByteWriter bw;
    bw.put<std::uint32_t>(new_context);
    put_group(bw, remote);
    util::Bytes packed = std::move(bw).take();
    bcast(comm, root, packed);
  } else {
    util::Bytes packed;
    bcast(comm, root, packed);
    util::ByteReader r(packed);
    new_context = r.get<std::uint32_t>();
    remote = get_group(r);
  }

  Comm inter;
  inter.context = new_context;
  inter.local = comm.local;
  inter.remote = std::move(remote);
  inter.rank = comm.rank;
  return inter;
}

Comm Proc::comm_spawn(const Comm& comm, int root,
                      const std::string& executable, const util::Bytes& args,
                      const std::vector<vnet::NodeId>& placement,
                      WorldHandle* handle_out, const LaunchOptions& opts) {
  std::uint32_t inter_context = 0;
  Group children;
  if (comm.rank == root) {
    inter_context = runtime_.allocate_context();
    auto handle = runtime_.launch_spawned_world(
        executable, placement, args, comm.local, root, inter_context, opts);
    children = handle.group;

    // Block until every child has initialized, as MPI_Comm_spawn does.
    const int n = static_cast<int>(placement.size());
    for (int i = 0; i < n; ++i) {
      (void)recv_stored([&](const Stored& s) {
        if (s.context != kControlContext || s.tag != kTagInitDone) {
          return false;
        }
        util::ByteReader r(s.data);
        return r.get<std::uint32_t>() == inter_context;
      });
    }

    if (handle_out != nullptr) *handle_out = std::move(handle);

    util::ByteWriter bw;
    bw.put<std::uint32_t>(inter_context);
    put_group(bw, children);
    util::Bytes packed = std::move(bw).take();
    bcast(comm, root, packed);
  } else {
    util::Bytes packed;
    bcast(comm, root, packed);
    util::ByteReader r(packed);
    inter_context = r.get<std::uint32_t>();
    children = get_group(r);
  }

  Comm inter;
  inter.context = inter_context;
  inter.local = comm.local;
  inter.remote = std::move(children);
  inter.rank = comm.rank;
  return inter;
}

Comm Proc::intercomm_merge(const Comm& intercomm, bool high) {
  // Contexts are allocated in pairs; the merged intracomm deterministically
  // uses context + 1, so no negotiation round is needed. The trailing
  // barrier provides the synchronization (and network cost) of the real
  // operation.
  Comm merged;
  merged.context = intercomm.context + 1;
  const Group& low = high ? intercomm.remote : intercomm.local;
  const Group& hi = high ? intercomm.local : intercomm.remote;
  merged.local.members = low.members;
  merged.local.members.insert(merged.local.members.end(), hi.members.begin(),
                              hi.members.end());
  merged.rank = high ? low.size() + intercomm.rank : intercomm.rank;
  barrier(merged);
  return merged;
}

void Proc::disconnect(const Comm& comm) {
  if (!comm.is_inter()) {
    barrier(comm);
    return;
  }
  // Intercomm disconnect: barrier across both groups in a canonical order
  // that both sides compute identically.
  const bool low = local_is_canonical_low(comm);
  Group combined;
  const Group& first = low ? comm.local : comm.remote;
  const Group& second = low ? comm.remote : comm.local;
  combined.members = first.members;
  combined.members.insert(combined.members.end(), second.members.begin(),
                          second.members.end());
  const int my_pos = low ? comm.rank : first.size() + comm.rank;
  barrier_on(combined, my_pos, comm.context | kCollectiveBit);
  kLog.debug("disconnected intercomm ctx {}", comm.context);
}

}  // namespace dac::minimpi

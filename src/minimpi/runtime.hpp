// The mini-MPI runtime: one per virtual cluster. It plays the roles that a
// real deployment splits between mpirun, the MPI library's out-of-band
// channel, and the shared filesystem used to publish port names:
//   * an executable registry (name -> entry function), the analogue of
//     binaries installed on every node;
//   * world launching: create endpoints + COMM_WORLD for n processes placed
//     on given nodes, then start them (used both as "mpirun" for job scripts
//     and by MPI_Comm_spawn);
//   * a port name registry (MPI_Open_port publishes the root's address; the
//     paper publishes the same information through a file);
//   * context-id allocation for new communicators.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/types.hpp"
#include "util/sync.hpp"
#include "vnet/cluster.hpp"
#include "vnet/node.hpp"

namespace dac::minimpi {

class Proc;

// Entry point of an MPI "executable". `args` is the argv-equivalent payload
// passed by the launcher or spawner.
using MpiEntry = std::function<void(Proc&, const util::Bytes& args)>;

struct LaunchOptions {
  std::string proc_name = "mpiproc";
  // Per-process start delay override (daemon startup cost). If unset, the
  // node default applies.
  std::optional<std::chrono::microseconds> start_delay;
  // Additional delay of `rank * start_stagger`, modeling a launcher that
  // execs its ranks sequentially (the batch system's remote daemon starts in
  // the paper's static path behave this way; MPI spawn does not).
  std::chrono::microseconds start_stagger{0};
  std::map<std::string, std::string> env;
};

// Handle to a launched world, owned by the launcher (mother superior, spawn
// root, or the core facade acting as mpirun).
struct WorldHandle {
  std::uint32_t context = kControlContext;
  Group group;
  std::vector<vnet::ProcessPtr> processes;

  void join() const {
    for (const auto& p : processes) p->join();
  }
  void stop() const {
    for (const auto& p : processes) p->request_stop();
  }
};

class Runtime {
 public:
  explicit Runtime(vnet::Cluster& cluster);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] vnet::Cluster& cluster() { return cluster_; }

  // ---- executable registry -------------------------------------------
  void register_executable(const std::string& name, MpiEntry entry);
  [[nodiscard]] bool has_executable(const std::string& name) const;

  // ---- world launching -----------------------------------------------
  // Starts `executable` on each node in `placement` (one rank per entry, in
  // rank order) with a fresh COMM_WORLD. Endpoints exist before this returns,
  // so the launcher may message rank addresses immediately.
  WorldHandle launch_world(const std::string& executable,
                           const std::vector<vnet::NodeId>& placement,
                           const util::Bytes& args,
                           const LaunchOptions& opts = {});

  // As above, but the children are also given `parent_group` + an intercomm
  // context so MPI_Comm_get_parent() works. Used by Proc::comm_spawn.
  WorldHandle launch_spawned_world(const std::string& executable,
                                   const std::vector<vnet::NodeId>& placement,
                                   const util::Bytes& args,
                                   const Group& parent_group,
                                   int parent_root_rank,
                                   std::uint32_t parent_intercomm_context,
                                   const LaunchOptions& opts = {});

  // ---- port registry ---------------------------------------------------
  // Returns a fresh unique port name bound to `root_addr`.
  std::string open_port(const vnet::Address& root_addr);
  // Publishes an address under a caller-chosen name (the "port file" path).
  void publish_port(const std::string& name, const vnet::Address& root_addr);
  [[nodiscard]] std::optional<vnet::Address> lookup_port(
      const std::string& name) const;
  // Blocks until `name` is bound and returns its address: woken by the
  // open_port/publish_port that binds it, not by polling. Returns nullopt
  // once `deadline` passes first (no deadline waits indefinitely) and throws
  // StoppedError if `stop` is killed during the wait.
  [[nodiscard]] std::optional<vnet::Address> await_port(
      const std::string& name, std::optional<simtime::TimePoint> deadline,
      vnet::Process& stop);
  void close_port(const std::string& name);

  // ---- context ids ------------------------------------------------------
  // Allocates an even context id; id+1 is reserved for a merge derivative.
  std::uint32_t allocate_context();

 private:
  WorldHandle launch_impl(const std::string& executable,
                          const std::vector<vnet::NodeId>& placement,
                          const util::Bytes& args, const Group* parent_group,
                          int parent_root_rank,
                          std::uint32_t parent_intercomm_context,
                          const LaunchOptions& opts);

  vnet::Cluster& cluster_;

  mutable Mutex exe_mu_{"mpi.executables"};
  std::map<std::string, MpiEntry> executables_ DAC_GUARDED_BY(exe_mu_);

  mutable Mutex ports_mu_{"mpi.ports"};
  std::map<std::string, vnet::Address> ports_ DAC_GUARDED_BY(ports_mu_);
  CondVar ports_cv_;  // a port was bound, or an awaiting process was killed
  std::uint64_t next_port_id_ DAC_GUARDED_BY(ports_mu_) = 0;

  std::atomic<std::uint32_t> next_context_{kFirstUserContext};
};

}  // namespace dac::minimpi

#include "minimpi/runtime.hpp"

#include <stdexcept>

#include "minimpi/proc.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::minimpi {

namespace {
const util::Logger kLog("minimpi");
}

Runtime::Runtime(vnet::Cluster& cluster) : cluster_(cluster) {}

void Runtime::register_executable(const std::string& name, MpiEntry entry) {
  ScopedLock lock(exe_mu_);
  executables_[name] = std::move(entry);
}

bool Runtime::has_executable(const std::string& name) const {
  ScopedLock lock(exe_mu_);
  return executables_.contains(name);
}

WorldHandle Runtime::launch_world(const std::string& executable,
                                  const std::vector<vnet::NodeId>& placement,
                                  const util::Bytes& args,
                                  const LaunchOptions& opts) {
  return launch_impl(executable, placement, args, nullptr, -1,
                     kControlContext, opts);
}

WorldHandle Runtime::launch_spawned_world(
    const std::string& executable, const std::vector<vnet::NodeId>& placement,
    const util::Bytes& args, const Group& parent_group, int parent_root_rank,
    std::uint32_t parent_intercomm_context, const LaunchOptions& opts) {
  return launch_impl(executable, placement, args, &parent_group,
                     parent_root_rank, parent_intercomm_context, opts);
}

WorldHandle Runtime::launch_impl(const std::string& executable,
                                 const std::vector<vnet::NodeId>& placement,
                                 const util::Bytes& args,
                                 const Group* parent_group,
                                 int parent_root_rank,
                                 std::uint32_t parent_intercomm_context,
                                 const LaunchOptions& opts) {
  if (placement.empty()) {
    throw std::invalid_argument("launch: empty placement");
  }
  MpiEntry entry;
  {
    ScopedLock lock(exe_mu_);
    auto it = executables_.find(executable);
    if (it == executables_.end()) {
      throw std::invalid_argument("launch: unknown executable '" + executable +
                                  "'");
    }
    entry = it->second;
  }

  const auto world_context = allocate_context();
  const int n = static_cast<int>(placement.size());

  // Create endpoints synchronously so every rank address is live (and
  // bufferable) before any process runs — the launcher and siblings may
  // message a rank that has not finished its startup delay yet.
  std::vector<std::unique_ptr<vnet::Endpoint>> endpoints;
  Group group;
  std::vector<vnet::Node*> nodes;
  endpoints.reserve(placement.size());
  nodes.reserve(placement.size());
  for (const auto node_id : placement) {
    vnet::Node* node = cluster_.find_node(node_id);
    if (node == nullptr) {
      throw std::invalid_argument("launch: unknown node id " +
                                  std::to_string(node_id));
    }
    auto ep = node->open_endpoint();
    group.members.push_back(ep->address());
    endpoints.push_back(std::move(ep));
    nodes.push_back(node);
  }

  WorldHandle handle;
  handle.context = world_context;
  handle.group = group;
  handle.processes.reserve(placement.size());

  const Group parent_copy = parent_group != nullptr ? *parent_group : Group{};
  const bool spawned = parent_group != nullptr;

  for (int rank = 0; rank < n; ++rank) {
    vnet::SpawnOptions sopts;
    sopts.name = opts.proc_name + "-r" + std::to_string(rank);
    sopts.start_delay = opts.start_delay;
    if (opts.start_stagger.count() > 0) {
      const auto base =
          opts.start_delay.value_or(nodes[static_cast<std::size_t>(rank)]
                                        ->default_start_delay());
      sopts.start_delay = base + rank * opts.start_stagger;
    }
    sopts.env = opts.env;

    // std::function requires copyable targets, so the move-only endpoint
    // rides in a shared holder and is moved out when the process runs.
    auto ep_holder = std::make_shared<std::unique_ptr<vnet::Endpoint>>(
        std::move(endpoints[static_cast<std::size_t>(rank)]));
    auto mailbox = (*ep_holder)->mailbox_weak();

    Comm world;
    world.context = world_context;
    world.local = group;
    world.rank = rank;

    std::optional<Comm> parent;
    if (spawned) {
      Comm p;
      p.context = parent_intercomm_context;
      p.local = group;
      p.remote = parent_copy;
      p.rank = rank;
      parent = std::move(p);
    }

    auto proc_entry = [this, entry, args, ep_holder, world = std::move(world),
                       parent = std::move(parent), spawned, parent_copy,
                       parent_root_rank, parent_intercomm_context](
                          vnet::Process& process) mutable {
      Proc proc(*this, process, std::move(*ep_holder), std::move(world),
                std::move(parent));
      if (spawned) {
        // MPI_Comm_spawn on the parent returns once every child reached
        // MPI_Init; model that with an INIT_DONE control message to the
        // spawn root (network-charged like the real out-of-band traffic).
        util::ByteWriter w;
        w.put<std::uint32_t>(parent_intercomm_context);
        w.put<std::int32_t>(proc.rank());
        proc.send_control(
            parent_copy.members[static_cast<std::size_t>(parent_root_rank)],
            kTagInitDone, std::move(w).take());
      }
      entry(proc, args);
    };

    auto process = nodes[static_cast<std::size_t>(rank)]->spawn(
        std::move(sopts), std::move(proc_entry));
    process->adopt_mailbox(std::move(mailbox));
    handle.processes.push_back(std::move(process));
  }

  kLog.debug("launched world '{}' x{} (ctx {})", executable, n, world_context);
  return handle;
}

std::string Runtime::open_port(const vnet::Address& root_addr) {
  ScopedLock lock(ports_mu_);
  std::string name = "mpiport-" + std::to_string(next_port_id_++);
  ports_[name] = root_addr;
  ports_cv_.notify_all();
  return name;
}

void Runtime::publish_port(const std::string& name,
                           const vnet::Address& root_addr) {
  ScopedLock lock(ports_mu_);
  ports_[name] = root_addr;
  ports_cv_.notify_all();
}

std::optional<vnet::Address> Runtime::lookup_port(
    const std::string& name) const {
  ScopedLock lock(ports_mu_);
  if (auto it = ports_.find(name); it != ports_.end()) return it->second;
  return std::nullopt;
}

std::optional<vnet::Address> Runtime::await_port(
    const std::string& name, std::optional<simtime::TimePoint> deadline,
    vnet::Process& stop) {
  // Declared before the lock, so it is released after it: the waker takes
  // ports_mu_ under the process's endpoint lock.
  struct WakerGuard {
    vnet::Process& proc;
    std::uint64_t id;
    ~WakerGuard() { proc.remove_stop_waker(id); }
  } waker{stop, stop.add_stop_waker([this] {
            ScopedLock lock(ports_mu_);
            ports_cv_.notify_all();
          })};
  UniqueLock lock(ports_mu_);
  while (true) {
    if (auto it = ports_.find(name); it != ports_.end()) return it->second;
    if (stop.stop_requested()) throw util::StoppedError();
    if (!deadline) {
      ports_cv_.wait(lock);
    } else if (simtime::now() >= *deadline) {
      return std::nullopt;
    } else {
      (void)ports_cv_.wait_until(lock, *deadline);
    }
  }
}

void Runtime::close_port(const std::string& name) {
  ScopedLock lock(ports_mu_);
  ports_.erase(name);
}

std::uint32_t Runtime::allocate_context() {
  // Even ids; id + 1 is reserved for the communicator derived by
  // intercomm_merge on an intercomm with this context.
  return next_context_.fetch_add(2, std::memory_order_relaxed);
}

}  // namespace dac::minimpi

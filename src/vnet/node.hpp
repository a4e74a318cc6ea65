// Virtual cluster nodes and the processes (daemons, job scripts, accelerator
// back-ends) that run on them. A Process is a thread pinned to a node with
// its own environment block and a cooperative stop token: request_stop()
// closes the process's endpoints so its blocking recv() loops drain and
// return, which is how a pbs_mom "kills the tasks" of a departing job.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "vnet/fabric.hpp"
#include "vnet/message.hpp"

namespace dac::vnet {

class Node;
class Process;

// RAII handle to a fabric address: registers a mailbox on construction and
// unregisters + closes it on destruction. All daemon communication goes
// through endpoints.
class Endpoint {
 public:
  Endpoint(Fabric& fabric, Address addr);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] const Address& address() const { return addr_; }

  void send(const Address& to, std::uint32_t type, util::Bytes payload);

  // Blocks; nullopt once the endpoint is closed and drained.
  std::optional<Message> recv();
  std::optional<Message> recv_for(std::chrono::milliseconds timeout);
  std::optional<Message> try_recv();

  // Closes the mailbox: pending messages remain poppable, new sends drop.
  void close();
  [[nodiscard]] bool closed() const;
  // Keeps the address reserved until `until` once this endpoint is gone:
  // messages that arrive for it meanwhile are absorbed, not dropped
  // (Fabric::unregister_mailbox).
  void linger_until(std::chrono::steady_clock::time_point until) {
    linger_until_ = until;
  }

  // Weak handle used by the owning Process to close this endpoint on kill.
  [[nodiscard]] std::weak_ptr<Mailbox> mailbox_weak() const { return box_; }

 private:
  Fabric& fabric_;
  Address addr_;
  MailboxPtr box_;
  std::chrono::steady_clock::time_point linger_until_{};
};

struct SpawnOptions {
  std::string name = "proc";
  // If set, overrides the node's default process start delay (models daemon
  // startup cost — dominant in the paper's Figure 7(a) waiting time).
  std::optional<std::chrono::microseconds> start_delay;
  std::map<std::string, std::string> env;
};

// A process: one thread bound to a node. Entry functions receive the Process
// and use it to open endpoints, read env, and check for stop requests.
class Process {
 public:
  using Entry = std::function<void(Process&)>;

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Node& node() const { return node_; }
  [[nodiscard]] std::uint64_t pid() const { return pid_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Opens a fabric endpoint owned by this process; closed on request_stop().
  std::unique_ptr<Endpoint> open_endpoint();

  // Registers an endpoint created elsewhere (e.g. by an MPI runtime before
  // the process thread starts) so request_stop() also closes it.
  void adopt_mailbox(std::weak_ptr<Mailbox> box);

  [[nodiscard]] std::optional<std::string> getenv(const std::string& key) const;
  void setenv(const std::string& key, std::string value);

  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }
  // Cooperative kill: sets the stop flag, closes all owned endpoints and
  // runs the registered stop wakers.
  void request_stop();

  // A stop waker lets a thread blocked on a condition this process does not
  // own (a minimpi port wait, say) notice a kill: request_stop() runs every
  // registered waker once. Register before checking stop_requested(), so no
  // kill can fall between the check and the wait. A waker runs under the
  // process's endpoint lock, so once remove_stop_waker() returns it is
  // neither running nor going to run.
  [[nodiscard]] std::uint64_t add_stop_waker(std::function<void()> wake);
  void remove_stop_waker(std::uint64_t id);

  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }
  void join();

 private:
  friend class Node;
  Process(Node& node, std::uint64_t pid, SpawnOptions opts, Entry entry);
  void run(Entry entry, std::chrono::microseconds start_delay);

  Node& node_;
  std::uint64_t pid_;
  std::string name_;

  mutable Mutex env_mu_{"process.env"};
  std::map<std::string, std::string> env_ DAC_GUARDED_BY(env_mu_);

  Mutex eps_mu_{"process.endpoints"};
  std::vector<std::weak_ptr<Mailbox>> owned_boxes_ DAC_GUARDED_BY(eps_mu_);
  std::map<std::uint64_t, std::function<void()>> stop_wakers_
      DAC_GUARDED_BY(eps_mu_);
  std::uint64_t next_waker_ DAC_GUARDED_BY(eps_mu_) = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::thread thread_;
};

using ProcessPtr = std::shared_ptr<Process>;

class Node {
 public:
  Node(NodeId id, std::string name, Fabric& fabric,
       std::chrono::microseconds default_start_delay);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& hostname() const { return name_; }
  [[nodiscard]] Fabric& fabric() const { return fabric_; }
  [[nodiscard]] std::chrono::microseconds default_start_delay() const {
    return default_start_delay_;
  }

  // Allocates a fresh port on this node (for non-process client endpoints,
  // e.g. test drivers acting as qsub).
  std::unique_ptr<Endpoint> open_endpoint();
  Address allocate_address();

  // Starts a process on this node. The entry runs after the (simulated)
  // process start delay.
  ProcessPtr spawn(SpawnOptions opts, Process::Entry entry);

  [[nodiscard]] std::vector<ProcessPtr> processes() const;
  [[nodiscard]] ProcessPtr find_process(std::uint64_t pid) const;

  // Requests stop on all processes and joins them.
  void stop_all_processes();

 private:
  friend class Process;

  NodeId id_;
  std::string name_;
  Fabric& fabric_;
  std::chrono::microseconds default_start_delay_;

  std::atomic<std::int32_t> next_port_{0};
  std::atomic<std::uint64_t> next_pid_{1};

  // Every process spawned here that is running or that someone still
  // holds. A finished process that only this table holds goes when the
  // table doubles (spawn), so the table follows live work, not history.
  mutable Mutex procs_mu_{"node.procs"};
  std::map<std::uint64_t, ProcessPtr> procs_ DAC_GUARDED_BY(procs_mu_);
  std::size_t sweep_at_ DAC_GUARDED_BY(procs_mu_) = 64;
};

}  // namespace dac::vnet

#include "vnet/node.hpp"
#include "simtime/clock.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::vnet {

namespace {
const util::Logger kLog("vnet");
}

// ---------------------------------------------------------------- Endpoint

Endpoint::Endpoint(Fabric& fabric, Address addr)
    : fabric_(fabric), addr_(addr), box_(std::make_shared<Mailbox>()) {
  fabric_.register_mailbox(addr_, box_);
}

Endpoint::~Endpoint() {
  fabric_.unregister_mailbox(addr_, linger_until_);
  box_->close();
}

void Endpoint::send(const Address& to, std::uint32_t type,
                    util::Bytes payload) {
  fabric_.send(Message{addr_, to, type, std::move(payload)});
}

std::optional<Message> Endpoint::recv() { return box_->pop(); }

std::optional<Message> Endpoint::recv_for(std::chrono::milliseconds timeout) {
  return box_->pop_for(timeout);
}

std::optional<Message> Endpoint::try_recv() { return box_->try_pop(); }

void Endpoint::close() { box_->close(); }

bool Endpoint::closed() const { return box_->closed(); }

// ----------------------------------------------------------------- Process

Process::Process(Node& node, std::uint64_t pid, SpawnOptions opts, Entry entry)
    : node_(node), pid_(pid), name_(std::move(opts.name)),
      env_(std::move(opts.env)) {
  const auto delay = opts.start_delay.value_or(node.default_start_delay());
  simtime::Clock::instance().actor_started();
  thread_ = std::thread([this, entry = std::move(entry), delay]() mutable {
    simtime::AdoptScope actor;
    run(std::move(entry), delay);
  });
}

Process::~Process() { join(); }

void Process::run(Entry entry, std::chrono::microseconds start_delay) {
  if (start_delay.count() > 0) simtime::sleep_for(start_delay);
  if (!stop_requested()) {
    try {
      entry(*this);
    } catch (const util::StoppedError&) {
      // Cooperative kill while blocked in recv: normal daemon shutdown.
    } catch (const std::exception& e) {
      kLog.error("process '{}' (pid {}) died: {}", name_, pid_, e.what());
    }
  }
  finished_.store(true, std::memory_order_release);
  // Whoever reaps this thread resumes from a native join the clock cannot
  // see; hold advancement across that window (released in Process::join).
  simtime::Clock::instance().exit_hold();
}

std::unique_ptr<Endpoint> Process::open_endpoint() {
  auto ep =
      std::make_unique<Endpoint>(node_.fabric(), node_.allocate_address());
  {
    ScopedLock lock(eps_mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ep->close();
    } else {
      owned_boxes_.push_back(ep->mailbox_weak());
    }
  }
  return ep;
}

void Process::adopt_mailbox(std::weak_ptr<Mailbox> box) {
  ScopedLock lock(eps_mu_);
  if (stop_.load(std::memory_order_acquire)) {
    if (auto b = box.lock()) b->close();
    return;
  }
  owned_boxes_.push_back(std::move(box));
}

std::optional<std::string> Process::getenv(const std::string& key) const {
  ScopedLock lock(env_mu_);
  if (auto it = env_.find(key); it != env_.end()) return it->second;
  return std::nullopt;
}

void Process::setenv(const std::string& key, std::string value) {
  ScopedLock lock(env_mu_);
  env_[key] = std::move(value);
}

void Process::request_stop() {
  stop_.store(true, std::memory_order_release);
  ScopedLock lock(eps_mu_);
  for (auto& weak : owned_boxes_) {
    if (auto box = weak.lock()) box->close();
  }
  for (const auto& [id, wake] : stop_wakers_) wake();
}

std::uint64_t Process::add_stop_waker(std::function<void()> wake) {
  ScopedLock lock(eps_mu_);
  const auto id = next_waker_++;
  stop_wakers_.emplace(id, std::move(wake));
  return id;
}

void Process::remove_stop_waker(std::uint64_t id) {
  ScopedLock lock(eps_mu_);
  stop_wakers_.erase(id);
}

void Process::join() {
  if (thread_.joinable()) {
    {
      // Native join, clock-invisible; gated on this thread's exit only.
      simtime::ExternalWaitScope quiescent(finished_);
      thread_.join();
    }
    simtime::Clock::instance().exit_release();
  }
}

// -------------------------------------------------------------------- Node

Node::Node(NodeId id, std::string name, Fabric& fabric,
           std::chrono::microseconds default_start_delay)
    : id_(id), name_(std::move(name)), fabric_(fabric),
      default_start_delay_(default_start_delay) {}

Node::~Node() { stop_all_processes(); }

std::unique_ptr<Endpoint> Node::open_endpoint() {
  return std::make_unique<Endpoint>(fabric_, allocate_address());
}

Address Node::allocate_address() {
  return Address{id_, next_port_.fetch_add(1, std::memory_order_relaxed)};
}

ProcessPtr Node::spawn(SpawnOptions opts, Process::Entry entry) {
  const auto pid = next_pid_.fetch_add(1, std::memory_order_relaxed);
  auto proc = ProcessPtr(new Process(*this, pid, std::move(opts),
                                     std::move(entry)));
  // Swept processes are destroyed, and so joined, after the lock is let go.
  std::vector<ProcessPtr> swept;
  ScopedLock lock(procs_mu_);
  if (procs_.size() >= sweep_at_) {
    // Nobody else holds a process whose count is 1, and nobody can take it
    // but through this table, under this lock.
    std::erase_if(procs_, [&swept](auto& entry) {
      if (!entry.second->finished() || entry.second.use_count() != 1) {
        return false;
      }
      swept.push_back(std::move(entry.second));
      return true;
    });
    sweep_at_ = std::max<std::size_t>(64, 2 * procs_.size());
  }
  procs_[pid] = proc;
  return proc;
}

std::vector<ProcessPtr> Node::processes() const {
  ScopedLock lock(procs_mu_);
  std::vector<ProcessPtr> out;
  out.reserve(procs_.size());
  for (const auto& [pid, p] : procs_) out.push_back(p);
  return out;
}

ProcessPtr Node::find_process(std::uint64_t pid) const {
  ScopedLock lock(procs_mu_);
  if (auto it = procs_.find(pid); it != procs_.end()) return it->second;
  return nullptr;
}

void Node::stop_all_processes() {
  std::vector<ProcessPtr> procs;
  {
    ScopedLock lock(procs_mu_);
    for (auto& [pid, p] : procs_) procs.push_back(p);
    procs_.clear();
  }
  for (auto& p : procs) p->request_stop();
  for (auto& p : procs) p->join();
}

}  // namespace dac::vnet

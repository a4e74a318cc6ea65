// The message fabric: central delivery engine of the virtual cluster.
// Endpoints register a mailbox under an (node, port) address; send() charges
// the NetworkModel delay and a background thread delivers the message into
// the destination mailbox when its deadline passes. Messages to unregistered
// addresses are dropped, like packets to a dead host.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <thread>

#include "util/queue.hpp"
#include "util/sync.hpp"
#include "vnet/fault_injector.hpp"
#include "vnet/message.hpp"
#include "vnet/network_model.hpp"

namespace dac::vnet {

using Mailbox = util::BlockingQueue<Message>;
using MailboxPtr = std::shared_ptr<Mailbox>;

class Fabric {
 public:
  explicit Fabric(NetworkModel model);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Registers `box` under `addr`; replaces any previous registration.
  void register_mailbox(const Address& addr, MailboxPtr box);
  // With `linger_until` in the future, `addr` stays reserved until then, as
  // TCP's TIME_WAIT keeps a closed port: messages that still arrive for it
  // are absorbed, not dropped. A caller that retransmitted lingers so the
  // answers to its duplicates, which may come after it has its reply, are
  // not reported as lost.
  void unregister_mailbox(
      const Address& addr,
      std::chrono::steady_clock::time_point linger_until = {});

  // Queues `msg` for delivery after the modeled network delay.
  void send(Message msg);

  // Installs (or clears, with nullptr) the fault injector consulted on every
  // send. Injected drops/duplicates/delays are accounted separately from
  // closed-mailbox drops. Install before traffic starts: swapping injectors
  // under load is safe but the decision stream is then interleaving-defined.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  // Stops the delivery thread; undelivered messages are dropped.
  void shutdown();

  [[nodiscard]] const NetworkModel& model() const { return model_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  // Messages dropped on delivery because the destination was unregistered
  // or its mailbox closed — a dead/absent host, NOT an injected fault.
  // (Kept under the historical name; injected drops count separately so
  // drop-counter assertions stay meaningful under injection.)
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return dropped_closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_dropped_closed() const {
    return dropped_closed_.load(std::memory_order_relaxed);
  }
  // Messages that arrived for a lingering address (unregister_mailbox).
  [[nodiscard]] std::uint64_t messages_absorbed() const {
    return absorbed_.load(std::memory_order_relaxed);
  }
  // Messages discarded at send() by the fault injector.
  [[nodiscard]] std::uint64_t messages_dropped_injected() const {
    return dropped_injected_.load(std::memory_order_relaxed);
  }
  // Extra copies enqueued by the fault injector.
  [[nodiscard]] std::uint64_t messages_duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  // Messages dropped on delivery to `addr` (unregistered or closed mailbox).
  [[nodiscard]] std::uint64_t drops_to(const Address& addr) const;
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  // (from, to) pairs that still hold a per-pair FIFO floor.
  [[nodiscard]] std::size_t pair_floors() const;

 private:
  struct Pending {
    std::chrono::steady_clock::time_point deliver_at;
    std::uint64_t seq;  // FIFO tie-break for equal deadlines
    Message msg;

    friend bool operator>(const Pending& a, const Pending& b) {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  void delivery_loop();
  void deliver(Message msg);
  void enqueue_locked(Message msg,
                      std::chrono::steady_clock::time_point deliver_at)
      DAC_REQUIRES(mu_);

  NetworkModel model_;

  mutable Mutex mu_{"fabric.pending"};
  CondVar cv_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending_
      DAC_GUARDED_BY(mu_);
  // Per (from, to) pair: last scheduled delivery time. Deliveries between a
  // pair of endpoints are FIFO regardless of message size, modeling a
  // stream transport (and matching MPI's per-pair ordering guarantee).
  // Floors that have passed go when the table doubles.
  std::map<std::pair<Address, Address>,
           std::chrono::steady_clock::time_point>
      pair_last_ DAC_GUARDED_BY(mu_);
  std::size_t pair_prune_at_ DAC_GUARDED_BY(mu_) = 64;
  // Per source node: when its NIC finishes the current transmission.
  std::map<NodeId, std::chrono::steady_clock::time_point> link_free_
      DAC_GUARDED_BY(mu_);
  std::uint64_t next_seq_ DAC_GUARDED_BY(mu_) = 0;
  bool stop_ DAC_GUARDED_BY(mu_) = false;
  // Deterministic latency jitter (NetworkModel::jitter); drawn per cross-node
  // message under mu_, so a fixed send sequence yields a fixed jitter
  // sequence.
  std::mt19937_64 jitter_rng_ DAC_GUARDED_BY(mu_);

  // Injection hook (null = healthy network). Swapped under injector_mu_ so
  // installation is race-free; the shared_ptr copy is consulted outside it.
  mutable Mutex injector_mu_{"fabric.injector"};
  std::shared_ptr<FaultInjector> injector_ DAC_GUARDED_BY(injector_mu_);

  Mutex boxes_mu_{"fabric.boxes"};
  std::map<Address, MailboxPtr> boxes_ DAC_GUARDED_BY(boxes_mu_);
  // Unregistered addresses still reserved, and until when. Expired entries
  // go when a lookup finds them or when the table doubles.
  std::map<Address, std::chrono::steady_clock::time_point> lingering_
      DAC_GUARDED_BY(boxes_mu_);
  std::size_t lingering_prune_at_ DAC_GUARDED_BY(boxes_mu_) = 64;

  // Drop accounting per destination; the first drop to a node warns, the
  // rest only count (drop storms would otherwise flood the log).
  mutable Mutex drops_mu_{"fabric.drops"};
  std::map<Address, std::uint64_t> drops_to_ DAC_GUARDED_BY(drops_mu_);
  std::set<NodeId> warned_nodes_ DAC_GUARDED_BY(drops_mu_);

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_closed_{0};
  std::atomic<std::uint64_t> absorbed_{0};
  std::atomic<std::uint64_t> dropped_injected_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  std::thread thread_;
};

}  // namespace dac::vnet

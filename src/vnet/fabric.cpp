#include "vnet/fabric.hpp"
#include "simtime/clock.hpp"

#include "trace/trace.hpp"
#include "util/logging.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace dac::vnet {

namespace {
const util::Logger kLog("fabric");

// Drops the entries of `table` whose time has passed once it has reached
// `prune_at`, then sets the next threshold to twice what is left: the cost
// is amortised over the inserts, and the table follows the live entries.
template <typename Table>
void prune_passed(Table& table, std::size_t& prune_at,
                  std::chrono::steady_clock::time_point now) {
  if (table.size() < prune_at) return;
  std::erase_if(table,
                [now](const auto& entry) { return entry.second <= now; });
  prune_at = std::max<std::size_t>(64, 2 * table.size());
}

// Message types print in hex, as protocol.hpp spells them.
std::string type_hex(std::uint32_t type) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", type);
  return buf;
}
}  // namespace

Fabric::Fabric(NetworkModel model)
    : model_(model), jitter_rng_(model.jitter_seed) {
  // Actor handoff: registered before the thread exists so the clock never
  // undercounts runnable actors (see simtime/clock.hpp).
  simtime::Clock::instance().actor_started();
  thread_ = std::thread([this] {
    simtime::AdoptScope actor;
    delivery_loop();
  });
}

Fabric::~Fabric() { shutdown(); }

void Fabric::register_mailbox(const Address& addr, MailboxPtr box) {
  ScopedLock lock(boxes_mu_);
  boxes_[addr] = std::move(box);
}

void Fabric::unregister_mailbox(
    const Address& addr, std::chrono::steady_clock::time_point linger_until) {
  const auto now = simtime::now();
  ScopedLock lock(boxes_mu_);
  boxes_.erase(addr);
  if (linger_until <= now) return;
  prune_passed(lingering_, lingering_prune_at_, now);
  lingering_[addr] = linger_until;
}

void Fabric::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  ScopedLock lock(injector_mu_);
  injector_ = std::move(injector);
}

void Fabric::send(Message msg) {
  const bool same_node = msg.from.node == msg.to.node;
  bytes_sent_.fetch_add(msg.payload.size(), std::memory_order_relaxed);

  FaultDecision fault;
  {
    std::shared_ptr<FaultInjector> injector;
    {
      ScopedLock lock(injector_mu_);
      injector = injector_;
    }
    if (injector) {
      fault = injector->on_message(msg.from.node, msg.to.node, msg.type,
                                   msg.payload.size());
    }
  }
  if (fault.drop) {
    dropped_injected_.fetch_add(1, std::memory_order_relaxed);
    kLog.debug("fault injection: dropped message {} -> {} (type {})",
               msg.from.str(), msg.to.str(), type_hex(msg.type));
    return;
  }

  {
    ScopedLock lock(mu_);
    if (stop_) return;
    const auto now = simtime::now();
    std::chrono::steady_clock::time_point deliver_at;
    if (same_node) {
      deliver_at = now + model_.delay(msg.payload.size(), /*same_node=*/true);
    } else {
      // Sender-NIC bandwidth model: transmissions from one node serialize,
      // so a burst of pipelined chunks drains at link rate instead of
      // arriving simultaneously.
      const auto wire =
          std::chrono::nanoseconds(static_cast<long long>(
              static_cast<double>(msg.payload.size()) /
              model_.bytes_per_second * 1e9));
      auto& link_free = link_free_[msg.from.node];
      const auto depart = std::max(now, link_free);
      link_free = depart + wire;
      deliver_at = depart + wire +
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       model_.latency);
      if (model_.jitter.count() > 0) {
        std::uniform_int_distribution<long long> dist(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   model_.jitter)
                   .count());
        deliver_at += std::chrono::nanoseconds(dist(jitter_rng_));
      }
    }
    deliver_at += fault.extra_delay;
    if (fault.duplicate) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      // The copy trails the original by one latency so the receiver sees a
      // retransmission, not a tie.
      enqueue_locked(msg, deliver_at +
                              std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(model_.latency));
    }
    enqueue_locked(std::move(msg), deliver_at);
  }
  cv_.notify_one();
}

void Fabric::enqueue_locked(Message msg,
                            std::chrono::steady_clock::time_point deliver_at) {
  if (simtime::Clock::instance().mode() == simtime::Mode::kDiscreteEvent) {
    // Quantize delivery instants to a coarse grid: concurrent sends land a
    // few nanoseconds apart (NIC-serialization offsets), and each distinct
    // instant would cost one full clock advance + fabric wakeup. Rounding up
    // lets one advance drain the whole grid slot — at 1,000-node scale this
    // is the difference between minutes and seconds of wall time. Round-up
    // is monotone, so per-pair FIFO (clamped below) is unaffected; ties
    // across pairs break by send seq, deterministically.
    constexpr std::chrono::nanoseconds kGrid(10'000);  // 10 us
    const auto rem = deliver_at.time_since_epoch() % kGrid;
    if (rem.count() != 0) deliver_at += kGrid - rem;
  }
  // A floor that has passed clamps nothing: every delivery lands at now or
  // later. Such floors go when the table doubles.
  prune_passed(pair_last_, pair_prune_at_, simtime::now());
  auto& last = pair_last_[{msg.from, msg.to}];
  if (deliver_at < last) deliver_at = last;
  last = deliver_at;
  pending_.push(Pending{deliver_at, next_seq_++, std::move(msg)});
}

void Fabric::shutdown() {
  {
    ScopedLock lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    // The join is invisible to the simtime clock; count as quiescent so a
    // DiscreteEvent teardown cannot stall virtual time.
    simtime::ExternalWaitScope quiescent;
    thread_.join();
  }
}

void Fabric::delivery_loop() {
  UniqueLock lock(mu_);
  while (true) {
    if (stop_) return;
    if (pending_.empty()) {
      while (!stop_ && pending_.empty()) cv_.wait(lock);
      continue;
    }
    const auto deadline = pending_.top().deliver_at;
    if (simtime::now() < deadline) {
      // Plain wait_until: a notify (new message, possibly with an earlier
      // deadline) or the timeout both re-enter the loop and recompute top().
      cv_.wait_until(lock, deadline);
      continue;
    }
    Message msg = std::move(const_cast<Pending&>(pending_.top()).msg);
    // priority_queue::pop, not a BlockingQueue: never blocks.
    pending_.pop();  // NOLINT-DACSCHED(blocking-under-lock)
    lock.unlock();
    deliver(std::move(msg));
    lock.lock();
  }
}

void Fabric::deliver(Message msg) {
  // Every delivery advances the virtual clock, so span ticks taken by the
  // receiver are ordered after the ticks of everything the sender did
  // before sending (trace happens-before assertions lean on this).
  trace::vclock_tick();
  const Address to = msg.to;
  const auto type = msg.type;
  MailboxPtr box;
  bool lingering = false;
  {
    ScopedLock lock(boxes_mu_);
    if (auto it = boxes_.find(to); it != boxes_.end()) {
      box = it->second;
    } else if (auto l = lingering_.find(to); l != lingering_.end()) {
      lingering = simtime::now() < l->second;
      if (!lingering) lingering_.erase(l);
    }
  }
  if (lingering) {
    absorbed_.fetch_add(1, std::memory_order_relaxed);
    kLog.debug("absorbed message to lingering {} (type {})", to.str(),
               type_hex(type));
    return;
  }
  bool pushed = false;
  if (box) {
    // Count before the push: a receiver that already popped the message
    // must never observe a delivered counter that excludes it.
    delivered_.fetch_add(1, std::memory_order_relaxed);
    pushed = box->push(std::move(msg));
    if (!pushed) delivered_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!pushed) {
    dropped_closed_.fetch_add(1, std::memory_order_relaxed);
    const char* reason = box ? "mailbox closed" : "unregistered address";
    bool first_for_node;
    {
      ScopedLock lock(drops_mu_);
      ++drops_to_[to];
      first_for_node = warned_nodes_.insert(to.node).second;
    }
    if (first_for_node) {
      // One warning per destination node; subsequent drops only count
      // (a dead daemon draws a stream from many ports). A steady stream to
      // one address still shows in drops_to().
      kLog.warn("dropping message(s) to {} ({}; first type {})", to.str(),
                reason, type_hex(type));
    } else {
      kLog.debug("dropped message to {} ({})", to.str(), reason);
    }
  }
}

std::size_t Fabric::pair_floors() const {
  ScopedLock lock(mu_);
  return pair_last_.size();
}

std::uint64_t Fabric::drops_to(const Address& addr) const {
  ScopedLock lock(drops_mu_);
  if (auto it = drops_to_.find(addr); it != drops_to_.end()) return it->second;
  return 0;
}

}  // namespace dac::vnet

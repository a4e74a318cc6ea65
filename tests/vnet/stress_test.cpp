// Stress and property tests of the virtual-cluster substrate: ordering
// guarantees under concurrent random traffic, link-bandwidth serialization,
// and process churn.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "simtime/clock.hpp"
#include "vnet/cluster.hpp"

namespace dac::vnet {
namespace {

using namespace std::chrono_literals;

ClusterTopology topo(std::size_t n, std::chrono::microseconds latency,
                     double bw = 5e9) {
  ClusterTopology t;
  t.node_count = n;
  t.network.latency = latency;
  t.network.bytes_per_second = bw;
  t.process_start_delay = std::chrono::microseconds(0);
  return t;
}

// Property: messages from one sender to one receiver arrive in send order,
// regardless of size mix, even with many concurrent senders.
class PairFifoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairFifoProperty, HoldsUnderConcurrentTraffic) {
  Cluster c(topo(5, std::chrono::microseconds(50), 1e8));
  auto sink = c.node(0).open_endpoint();

  constexpr int kSenders = 4;
  constexpr int kPerSender = 40;
  // ActorThread, not std::thread: the receive below opens a 10 s virtual
  // window, and an unregistered sender that has not reached its first
  // clock-visible wait would let the clock fire it on a loaded machine.
  std::vector<simtime::ActorThread> senders;
  for (int snd = 0; snd < kSenders; ++snd) {
    senders.emplace_back([&, snd] {
      std::mt19937_64 rng(GetParam() * 977 + static_cast<unsigned>(snd));
      auto ep = c.node(static_cast<std::size_t>(1 + snd)).open_endpoint();
      for (int i = 0; i < kPerSender; ++i) {
        util::ByteWriter w;
        w.put<std::int32_t>(snd);
        w.put<std::int32_t>(i);
        // Random size so a non-FIFO fabric would reorder.
        const std::string pad(rng() % 20000, 'x');
        w.put_raw(pad.data(), pad.size());
        ep->send(sink->address(), 1, std::move(w).take());
        if (rng() % 3 == 0) dac::simtime::sleep_for(100us);  // NOLINT-DACSCHED(sleep-poll)
      }
      // Keep the endpoint alive until everything is delivered.
      dac::simtime::sleep_for(50ms);  // NOLINT-DACSCHED(sleep-poll)
    });
  }

  std::vector<int> next_seq(kSenders, 0);
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto msg = sink->recv_for(10'000ms);
    ASSERT_TRUE(msg.has_value());
    util::ByteReader r(msg->payload);
    const auto snd = r.get<std::int32_t>();
    const auto seq = r.get<std::int32_t>();
    EXPECT_EQ(seq, next_seq[static_cast<std::size_t>(snd)])
        << "reordering from sender " << snd;
    next_seq[static_cast<std::size_t>(snd)] = seq + 1;
  }
  for (auto& t : senders) t.join();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairFifoProperty,
                         ::testing::Values(1, 17, 4242));

TEST(LinkModel, BandwidthSerializesBurst) {
  // 8 messages of 100 KB at 10 MB/s: the burst must take >= 8 * 10ms wire
  // time, because one NIC transmits them back to back.
  Cluster c(topo(2, std::chrono::microseconds(10), 1e7));
  auto src = c.node(0).open_endpoint();
  auto dst = c.node(1).open_endpoint();
  const auto start = dac::simtime::now();
  for (int i = 0; i < 8; ++i) {
    src->send(dst->address(), 1, util::Bytes(100'000));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(dst->recv_for(10'000ms).has_value());
  }
  const auto dt = dac::simtime::now() - start;
  EXPECT_GE(dt, 70ms);
}

TEST(LinkModel, DistinctSendersDoNotSerialize) {
  // The same burst split across two sender nodes halves the wall time.
  Cluster c(topo(3, std::chrono::microseconds(10), 1e7));
  auto a = c.node(0).open_endpoint();
  auto b = c.node(1).open_endpoint();
  auto dst = c.node(2).open_endpoint();
  const auto start = dac::simtime::now();
  for (int i = 0; i < 4; ++i) {
    a->send(dst->address(), 1, util::Bytes(100'000));
    b->send(dst->address(), 1, util::Bytes(100'000));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(dst->recv_for(10'000ms).has_value());
  }
  const auto dt = dac::simtime::now() - start;
  EXPECT_LT(dt, 70ms);
}

TEST(ProcessChurn, SpawnAndKillManyProcesses) {
  Cluster c(topo(3, std::chrono::microseconds(20)));
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int round = 0; round < 100; ++round) {
    std::vector<ProcessPtr> procs;
    for (std::size_t n = 0; n < c.size(); ++n) {
      procs.push_back(c.node(n).spawn({.name = "churn"},
                                      [&](Process& proc) {
        auto ep = proc.open_endpoint();
        ++started;
        while (auto m = ep->recv()) {
        }
        ++finished;
      }));
    }
    // Kill half of them before they necessarily started.
    for (std::size_t i = 0; i < procs.size(); i += 2) {
      procs[i]->request_stop();
    }
    for (auto& p : procs) p->request_stop();
    for (auto& p : procs) p->join();
  }
  // Every process that entered its loop also left it.
  EXPECT_EQ(started.load(), finished.load());
  // And the 100 killed processes per node were swept from its table.
  for (std::size_t n = 0; n < c.size(); ++n) {
    EXPECT_LE(c.node(n).processes().size(), 64u) << "node " << n;
  }
}

TEST(ProcessChurn, ManyEndpointsPerProcess) {
  Cluster c(topo(2, std::chrono::microseconds(20)));
  std::atomic<bool> ok{false};
  auto p = c.node(0).spawn({.name = "many"}, [&](Process& proc) {
    std::vector<std::unique_ptr<Endpoint>> eps;
    for (int i = 0; i < 64; ++i) eps.push_back(proc.open_endpoint());
    // Ring of sends through all endpoints on one node.
    for (int i = 0; i < 64; ++i) {
      eps[static_cast<std::size_t>(i)]->send(
          eps[static_cast<std::size_t>((i + 1) % 64)]->address(), 9, {});
    }
    int received = 0;
    for (int i = 0; i < 64; ++i) {
      if (eps[static_cast<std::size_t>(i)]->recv_for(5000ms)) ++received;
    }
    ok = received == 64;
  });
  p->join();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace dac::vnet

#include "vnet/fabric.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "util/bytes.hpp"

namespace dac::vnet {
namespace {

using namespace std::chrono_literals;

util::Bytes payload(std::size_t n) { return util::Bytes(n); }

class FabricTest : public ::testing::Test {
 protected:
  NetworkModel fast_model() {
    NetworkModel m;
    m.latency = std::chrono::microseconds(100);
    m.loopback_latency = std::chrono::microseconds(10);
    m.bytes_per_second = 1e9;
    return m;
  }
};

TEST_F(FabricTest, DeliversToRegisteredMailbox) {
  Fabric fabric(fast_model());
  auto box = std::make_shared<Mailbox>();
  const Address dst{1, 0};
  fabric.register_mailbox(dst, box);

  fabric.send(Message{Address{0, 0}, dst, 7, payload(4)});
  auto msg = box->pop_for(1000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 7u);
  EXPECT_EQ(msg->payload.size(), 4u);
  EXPECT_EQ(fabric.messages_delivered(), 1u);
}

TEST_F(FabricTest, DropsToUnregisteredAddress) {
  Fabric fabric(fast_model());
  fabric.send(Message{Address{0, 0}, Address{5, 5}, 1, {}});
  // Wait out the latency; the message must be counted as dropped.
  dac::simtime::sleep_for(20ms);  // NOLINT-DACSCHED(sleep-poll)
  EXPECT_EQ(fabric.messages_dropped(), 1u);
  EXPECT_EQ(fabric.messages_delivered(), 0u);
}

TEST_F(FabricTest, CountsDropsPerDestination) {
  Fabric fabric(fast_model());
  const Address dead{5, 5};
  const Address other{6, 6};
  const Address live{1, 0};
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(live, box);

  fabric.send(Message{Address{0, 0}, dead, 1, {}});
  fabric.send(Message{Address{0, 0}, dead, 1, {}});
  fabric.send(Message{Address{0, 0}, other, 1, {}});
  fabric.send(Message{Address{0, 0}, live, 1, {}});

  ASSERT_TRUE(box->pop_for(1000ms).has_value());
  const auto deadline = dac::simtime::now() + 2s;
  while (fabric.messages_dropped() < 3 &&
         dac::simtime::now() < deadline) {
    dac::simtime::sleep_for(1ms);  // NOLINT-DACSCHED(sleep-poll)
  }
  EXPECT_EQ(fabric.drops_to(dead), 2u);
  EXPECT_EQ(fabric.drops_to(other), 1u);
  EXPECT_EQ(fabric.drops_to(live), 0u);
  EXPECT_EQ(fabric.messages_dropped(), 3u);
}

TEST_F(FabricTest, ClosedMailboxCountsAsDrop) {
  Fabric fabric(fast_model());
  const Address dst{1, 0};
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(dst, box);
  box->close();

  fabric.send(Message{Address{0, 0}, dst, 1, {}});
  const auto deadline = dac::simtime::now() + 2s;
  while (fabric.drops_to(dst) < 1 &&
         dac::simtime::now() < deadline) {
    dac::simtime::sleep_for(1ms);  // NOLINT-DACSCHED(sleep-poll)
  }
  EXPECT_EQ(fabric.drops_to(dst), 1u);
}

TEST_F(FabricTest, ChargesCrossNodeLatency) {
  NetworkModel m;
  m.latency = std::chrono::microseconds(30000);  // 30 ms
  m.loopback_latency = std::chrono::microseconds(10);
  Fabric fabric(m);
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);

  const auto start = dac::simtime::now();
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 0, {}});
  auto msg = box->pop_for(1000ms);
  const auto dt = dac::simtime::now() - start;
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(dt, 25ms);
}

TEST_F(FabricTest, LoopbackIsCheaperThanCrossNode) {
  NetworkModel m;
  m.latency = std::chrono::microseconds(30000);
  m.loopback_latency = std::chrono::microseconds(10);
  Fabric fabric(m);
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{0, 1}, box);

  const auto start = dac::simtime::now();
  fabric.send(Message{Address{0, 0}, Address{0, 1}, 0, {}});
  auto msg = box->pop_for(1000ms);
  const auto dt = dac::simtime::now() - start;
  ASSERT_TRUE(msg.has_value());
  EXPECT_LT(dt, 20ms);
}

TEST_F(FabricTest, ChargesBandwidthForLargePayloads) {
  NetworkModel m;
  m.latency = std::chrono::microseconds(100);
  m.bytes_per_second = 1e6;  // 1 MB/s: 50 KB ~ 50 ms
  Fabric fabric(m);
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);

  const auto start = dac::simtime::now();
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 0, payload(50000)});
  auto msg = box->pop_for(5000ms);
  const auto dt = dac::simtime::now() - start;
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(dt, 40ms);
}

TEST_F(FabricTest, PerPairFifoDespiteSizeDifference) {
  NetworkModel m;
  m.latency = std::chrono::microseconds(100);
  m.bytes_per_second = 1e6;  // big message is slow
  Fabric fabric(m);
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);

  // Large first, tiny second: FIFO per pair means the large one still
  // arrives first.
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 1, payload(100000)});
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 2, payload(1)});

  auto first = box->pop_for(5000ms);
  auto second = box->pop_for(5000ms);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->type, 1u);
  EXPECT_EQ(second->type, 2u);
}

TEST_F(FabricTest, DifferentPairsMayOvertake) {
  NetworkModel m;
  m.latency = std::chrono::microseconds(100);
  m.bytes_per_second = 1e6;
  Fabric fabric(m);
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);

  fabric.send(Message{Address{0, 0}, Address{1, 0}, 1, payload(200000)});
  fabric.send(Message{Address{2, 0}, Address{1, 0}, 2, payload(1)});

  auto first = box->pop_for(5000ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 2u);  // the small message from another sender wins
}

TEST_F(FabricTest, ShutdownStopsDelivery) {
  Fabric fabric(fast_model());
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);
  fabric.shutdown();
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 0, {}});
  EXPECT_FALSE(box->pop_for(50ms).has_value());
}

TEST_F(FabricTest, CountsBytes) {
  Fabric fabric(fast_model());
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 0, payload(123)});
  (void)box->pop_for(1000ms);
  EXPECT_EQ(fabric.bytes_sent(), 123u);
}

TEST_F(FabricTest, UnregisterDropsSubsequentSends) {
  Fabric fabric(fast_model());
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(Address{1, 0}, box);
  fabric.unregister_mailbox(Address{1, 0});
  fabric.send(Message{Address{0, 0}, Address{1, 0}, 0, {}});
  dac::simtime::sleep_for(10ms);  // NOLINT-DACSCHED(sleep-poll)
  EXPECT_EQ(fabric.messages_dropped(), 1u);
}

TEST_F(FabricTest, LingeringAddressAbsorbsLateMessagesUntilItExpires) {
  Fabric fabric(fast_model());
  const Address live{1, 0};
  const Address lingering{1, 1};
  const Address expired{1, 2};
  auto box = std::make_shared<Mailbox>();
  fabric.register_mailbox(live, box);
  fabric.register_mailbox(lingering, std::make_shared<Mailbox>());
  fabric.register_mailbox(expired, std::make_shared<Mailbox>());
  const auto now = dac::simtime::now();
  fabric.unregister_mailbox(lingering, now + 1s);
  // Over before the 100 us latency brings anything.
  fabric.unregister_mailbox(expired, now + 50us);

  // One sender, so the message to `live` arrives last: once it is there,
  // the other two have been delivered.
  fabric.send(Message{Address{0, 0}, lingering, 1, {}});
  fabric.send(Message{Address{0, 0}, expired, 1, {}});
  fabric.send(Message{Address{0, 0}, live, 1, {}});
  ASSERT_TRUE(box->pop_for(1000ms).has_value());
  EXPECT_EQ(fabric.messages_absorbed(), 1u);
  EXPECT_EQ(fabric.drops_to(lingering), 0u);
  EXPECT_EQ(fabric.drops_to(expired), 1u);
  EXPECT_EQ(fabric.messages_dropped(), 1u);
}

TEST_F(FabricTest, OneShotEndpointsLeaveTheFloorTableBounded) {
  // Each request comes from a fresh port, as an rpc call's does: 10,000
  // pairs, each used once, in waves of 100. Their floors pass with their
  // deliveries.
  Fabric fabric(fast_model());
  auto box = std::make_shared<Mailbox>();
  const Address server{1, 0};
  fabric.register_mailbox(server, box);
  for (std::int32_t wave = 0; wave < 100; ++wave) {
    for (std::int32_t i = 0; i < 100; ++i) {
      fabric.send(Message{Address{0, wave * 100 + i}, server, 1, {}});
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(box->pop_for(1000ms).has_value());
    }
  }
  EXPECT_EQ(fabric.messages_delivered(), 10'000u);
  EXPECT_LE(fabric.pair_floors(), 256u);
}

}  // namespace
}  // namespace dac::vnet

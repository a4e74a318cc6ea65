#include "torque/rpc.hpp"
#include "svc/caller.hpp"
#include "util/sync.hpp"

#include <gtest/gtest.h>


#include "vnet/cluster.hpp"

namespace dac::torque::rpc {
namespace {

using namespace std::chrono_literals;

vnet::ClusterTopology topo() {
  vnet::ClusterTopology t;
  t.node_count = 2;
  t.network.latency = std::chrono::microseconds(50);
  t.process_start_delay = std::chrono::microseconds(0);
  return t;
}

// A tiny echo server: replies ok with the body reversed; errors on type
// kDeleteJob.
vnet::ProcessPtr start_echo(vnet::Node& node, vnet::Address* out) {
  auto ep = node.open_endpoint();
  *out = ep->address();
  auto holder = std::make_shared<std::unique_ptr<vnet::Endpoint>>(
      std::move(ep));
  return node.spawn({.name = "echo"}, [holder](vnet::Process& proc) {
    auto endpoint = std::move(*holder);
    proc.adopt_mailbox(endpoint->mailbox_weak());
    while (auto msg = endpoint->recv()) {
      auto req = parse_request(*msg);
      if (req.type == MsgType::kDeleteJob) {
        reply_error(*endpoint, req, ReplyCode::kUnknownJob, "nope");
        continue;
      }
      if (req.type == MsgType::kStatNodes) continue;  // never replies
      util::Bytes reversed(req.body.rbegin(), req.body.rend());
      reply_ok(*endpoint, req, std::move(reversed));
    }
  });
}

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : cluster_(topo()) {
    server_ = start_echo(cluster_.node(1), &addr_);
  }
  ~RpcTest() override {
    server_->request_stop();
    server_->join();
  }

  vnet::Cluster cluster_;
  vnet::ProcessPtr server_;
  vnet::Address addr_;
};

TEST_F(RpcTest, CallRoundTrip) {
  util::Bytes body{std::byte{1}, std::byte{2}, std::byte{3}};
  auto reply = call(cluster_.node(0), addr_, MsgType::kSubmit, body);
  EXPECT_EQ(reply,
            (util::Bytes{std::byte{3}, std::byte{2}, std::byte{1}}));
}

TEST_F(RpcTest, EmptyBody) {
  auto reply = call(cluster_.node(0), addr_, MsgType::kSubmit, {});
  EXPECT_TRUE(reply.empty());
}

TEST_F(RpcTest, ErrorReplyThrowsCallError) {
  try {
    (void)call(cluster_.node(0), addr_, MsgType::kDeleteJob, {});
    FAIL() << "expected CallError";
  } catch (const CallError& e) {
    EXPECT_EQ(e.code(), ReplyCode::kUnknownJob);
    EXPECT_STREQ(e.what(), "nope");
  }
}

TEST_F(RpcTest, TimeoutThrowsProtocolError) {
  EXPECT_THROW(
      (void)call(cluster_.node(0), addr_, MsgType::kStatNodes, {}, 50ms),
      util::ProtocolError);
}

TEST_F(RpcTest, CallToDeadAddressTimesOut) {
  EXPECT_THROW((void)call(cluster_.node(0), {0, 9999}, MsgType::kSubmit, {},
                          50ms),
               util::ProtocolError);
}

TEST_F(RpcTest, CallFromProcessIsKillable) {
  std::atomic<bool> threw{false};
  dac::Latch calling{1};
  auto p = cluster_.node(0).spawn({.name = "caller"}, [&](vnet::Process& proc) {
    try {
      // Target never replies; the kill must unblock the call whether it
      // lands while the call is blocked or just before it starts.
      calling.count_down();
      (void)svc::Caller(proc, addr_, svc::RetryPolicy::none())
          .call(MsgType::kStatNodes, {}, {.deadline = 10'000ms});
    } catch (const util::StoppedError&) {
      threw = true;
    }
  });
  calling.wait();
  p->request_stop();
  p->join();
  EXPECT_TRUE(threw);
}

TEST_F(RpcTest, ConcurrentCallsDoNotCrosstalk) {
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      util::ByteWriter w;
      w.put<std::int32_t>(i);
      auto reply = call(cluster_.node(0), addr_, MsgType::kSubmit,
                        std::move(w).take());
      // Reversed 4-byte int: reverse again to recover.
      util::Bytes again(reply.rbegin(), reply.rend());
      util::ByteReader r(again);
      if (r.get<std::int32_t>() == i) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok, 4);
}

TEST_F(RpcTest, ParseRequestExtractsFields) {
  // Round-trip through notify into a raw endpoint.
  auto ep = cluster_.node(0).open_endpoint();
  auto sink = cluster_.node(0).open_endpoint();
  notify(*ep, sink->address(), MsgType::kJobComplete,
         util::Bytes{std::byte{9}});
  auto msg = sink->recv_for(1000ms);
  ASSERT_TRUE(msg.has_value());
  auto req = parse_request(*msg);
  EXPECT_EQ(req.type, MsgType::kJobComplete);
  EXPECT_EQ(req.from, ep->address());
  EXPECT_EQ(req.body, util::Bytes{std::byte{9}});
  EXPECT_GT(req.id, 0u);
}

}  // namespace
}  // namespace dac::torque::rpc

// Service-runtime tests: Caller retransmission and deadlines, ServiceLoop
// duplicate suppression of requests and notifications, backoff schedules,
// and the per-RPC metrics surface — plus a cluster-level check that qstat is
// still answered while a submit flood holds the server's serialized lane.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <type_traits>

#include "simtime/clock.hpp"
#include "core/cluster.hpp"
#include "svc/backoff.hpp"
#include "svc/caller.hpp"
#include "svc/metrics.hpp"
#include "svc/service_loop.hpp"
#include "svc/wire.hpp"
#include "vnet/fabric.hpp"
#include "vnet/node.hpp"

namespace dac::svc {
namespace {

using namespace std::chrono_literals;
using torque::MsgType;
using torque::ReplyCode;

// A deadline is "the callee never answered"; a CallError is "the callee
// answered with a failure". Conflating them would make retry loops swallow
// real failures.
static_assert(!std::is_base_of_v<CallError, DeadlineError>);
static_assert(std::is_base_of_v<util::ProtocolError, CallError>);
static_assert(std::is_base_of_v<util::ProtocolError, DeadlineError>);

vnet::NetworkModel fast_model() {
  vnet::NetworkModel m;
  m.latency = std::chrono::microseconds(50);
  m.loopback_latency = std::chrono::microseconds(5);
  m.bytes_per_second = 5e9;
  return m;
}

// Every loop and peer runs on a simtime::ActorThread, not a std::thread:
// under DACSCHED_CLOCK=virtual the clock must see them as runnable, or it
// advances past a caller's deadline while they wait for a CPU.
class SvcTest : public ::testing::Test {
 protected:
  SvcTest()
      : fabric_(fast_model()),
        node_(0, "n0", fabric_, std::chrono::microseconds(0)) {}

  vnet::Fabric fabric_;
  vnet::Node node_;
};

TEST_F(SvcTest, CallerRetransmitsUntilServerAppears) {
  // The server's address exists, but its endpoint registers only after the
  // first transmission was dropped — the retransmit must get through.
  const auto server_addr = node_.allocate_address();

  simtime::ActorThread server([&] {
    dac::simtime::sleep_for(30ms);  // NOLINT-DACSCHED(sleep-poll)
    vnet::Endpoint ep(fabric_, server_addr);
    auto msg = ep.recv_for(5000ms);
    ASSERT_TRUE(msg.has_value());
    const auto req = parse_request(*msg);
    util::ByteWriter w;
    w.put<std::int32_t>(42);
    reply_ok(ep, req, std::move(w).take());
    // Drain retransmitted duplicates until the client is done.
    while (ep.try_recv()) {
    }
  });

  RetryPolicy rp;
  rp.max_attempts = 20;
  rp.initial_backoff = 5ms;
  rp.max_backoff = 20ms;
  const Caller caller(node_, server_addr, rp);
  const auto reply = caller.call(MsgType::kStatJobs, {}, {.deadline = 5000ms});
  util::ByteReader r(reply);
  EXPECT_EQ(r.get<std::int32_t>(), 42);

  server.join();
  // The drop observability satellite: the pre-registration sends show up in
  // the fabric's per-destination drop counter.
  EXPECT_GE(fabric_.drops_to(server_addr), 1u);
}

TEST(CallerLingerTest, RepliesToRetransmitsAfterTheCallAreAbsorbed) {
  // A server slower than the first backoffs answers the call, then serves
  // another client, then answers the call's two retransmits from its dedup
  // cache: those replies reach the caller's port after the call returned,
  // and the fabric absorbs them instead of counting drops.
  auto model = fast_model();
  model.latency = 2ms;  // the other client's request lands between the copies
  vnet::Fabric fabric(model);
  vnet::Node node(0, "n0", fabric, 0us);
  vnet::Node other(1, "n1", fabric, 0us);
  auto ep = node.open_endpoint();
  ServiceLoop loop(*ep, ServiceConfig{.name = "slow", .service_cost = 30ms});
  loop.on(MsgType::kStatJobs,
          [](const Request&, Responder& resp) { resp.ok(); });
  simtime::ActorThread t([&] { loop.run(); });

  auto client = other.open_endpoint();
  client->send(ep->address(), as_u32(MsgType::kStatJobs),
               envelope(next_request_id(), {}));
  RetryPolicy rp;
  rp.max_attempts = 3;
  rp.initial_backoff = 5ms;
  (void)Caller(node, ep->address(), rp)
      .call(MsgType::kStatJobs, {}, {.deadline = 5000ms});
  // Queued behind the retransmits, so answered after their replies landed.
  (void)Caller(node, ep->address(), RetryPolicy::none())
      .call(MsgType::kStatJobs, {}, {.deadline = 5000ms});
  EXPECT_EQ(loop.deduped(), 2u);
  EXPECT_EQ(fabric.messages_absorbed(), 2u);
  EXPECT_EQ(fabric.messages_dropped(), 0u);

  ep->close();
  t.join();
}

TEST_F(SvcTest, DeadlineExceededThrowsDeadlineNotCallError) {
  const auto nowhere = node_.allocate_address();  // never registered
  const Caller caller(node_, nowhere, RetryPolicy::none());
  try {
    (void)caller.call(MsgType::kStatJobs, {}, {.deadline = 40ms});
    FAIL() << "expected DeadlineError";
  } catch (const CallError&) {
    FAIL() << "a silent peer must not surface as CallError";
  } catch (const DeadlineError&) {
    // expected
  }
}

TEST_F(SvcTest, ErrorReplySurfacesAsCallErrorWithCode) {
  auto ep = node_.open_endpoint();
  ServiceLoop loop(*ep, ServiceConfig{.name = "err"});
  loop.on(MsgType::kDeleteJob, [](const Request&, Responder& resp) {
    resp.error(ReplyCode::kUnknownJob, "no such job");
  });
  simtime::ActorThread t([&] { loop.run(); });

  const Caller caller(node_, ep->address(), RetryPolicy::none());
  try {
    (void)caller.call(MsgType::kDeleteJob, {}, {.deadline = 2000ms});
    FAIL() << "expected CallError";
  } catch (const CallError& e) {
    EXPECT_EQ(e.code(), ReplyCode::kUnknownJob);
  }
  ep->close();
  t.join();
}

TEST_F(SvcTest, DuplicateRequestExecutesOnceAnswersTwice) {
  auto ep = node_.open_endpoint();
  std::atomic<int> executions{0};
  ServiceLoop loop(*ep, ServiceConfig{.name = "dedup"});
  loop.on(MsgType::kSubmit, [&](const Request&, Responder& resp) {
    executions.fetch_add(1);
    util::ByteWriter w;
    w.put<std::uint64_t>(7);
    resp.ok(std::move(w).take());
  });
  simtime::ActorThread t([&] { loop.run(); });

  auto client = node_.open_endpoint();
  const auto id = next_request_id();
  const auto env = envelope(id, {});
  client->send(ep->address(), as_u32(MsgType::kSubmit), env);
  client->send(ep->address(), as_u32(MsgType::kSubmit), env);

  // Both the original and the duplicate get the same full reply.
  for (int i = 0; i < 2; ++i) {
    auto msg = client->recv_for(5000ms);
    ASSERT_TRUE(msg.has_value()) << "reply " << i;
    auto body = parse_reply(*msg, id);
    ASSERT_TRUE(body.has_value());
    util::ByteReader r(*body);
    EXPECT_EQ(r.get<std::uint64_t>(), 7u);
  }
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(loop.deduped(), 1u);

  ep->close();
  t.join();
}

TEST_F(SvcTest, DuplicateNotificationExecutesOnceAndIsNotAnswered) {
  auto ep = node_.open_endpoint();
  std::atomic<int> executions{0};
  ServiceLoop loop(*ep, ServiceConfig{.name = "notify"});
  loop.on(MsgType::kJobComplete,
          [&](const Request&, Responder&) { executions.fetch_add(1); });
  loop.on(MsgType::kStatJobs,
          [](const Request&, Responder& resp) { resp.ok(); });
  simtime::ActorThread t([&] { loop.run(); });

  // A fabric duplicate: the same notification envelope twice, then a
  // request whose reply shows both copies were served.
  auto client = node_.open_endpoint();
  const auto env = envelope(next_request_id(), {});
  client->send(ep->address(), as_u32(MsgType::kJobComplete), env);
  client->send(ep->address(), as_u32(MsgType::kJobComplete), env);
  const auto probe = next_request_id();
  client->send(ep->address(), as_u32(MsgType::kStatJobs),
               envelope(probe, {}));

  auto msg = client->recv_for(5000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(parse_reply(*msg, probe).has_value());  // the only reply
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(loop.deduped(), 1u);

  ep->close();
  t.join();
}

TEST_F(SvcTest, HandlerExceptionBecomesErrorReply) {
  auto ep = node_.open_endpoint();
  ServiceLoop loop(*ep, ServiceConfig{.name = "throwing"});
  loop.on(MsgType::kAlterJob, [](const Request&, Responder&) {
    throw std::runtime_error("handler exploded");
  });
  simtime::ActorThread t([&] { loop.run(); });

  const Caller caller(node_, ep->address(), RetryPolicy::none());
  EXPECT_THROW((void)caller.call(MsgType::kAlterJob, {}, {.deadline = 2000ms}),
               CallError);
  ep->close();
  t.join();
}

TEST(BackoffTest, GrowsAndCaps) {
  BackoffPolicy p;
  p.initial = std::chrono::microseconds(100);
  p.multiplier = 2.0;
  p.cap = std::chrono::microseconds(500);
  Backoff b(p);
  EXPECT_EQ(b.next().count(), 100);
  EXPECT_EQ(b.next().count(), 200);
  EXPECT_EQ(b.next().count(), 400);
  EXPECT_EQ(b.next().count(), 500);  // capped
  EXPECT_EQ(b.next().count(), 500);
  b.reset();
  EXPECT_EQ(b.next().count(), 100);
}

TEST(BackoffTest, JitterStaysWithinBounds) {
  BackoffPolicy p;
  p.initial = std::chrono::microseconds(1000);
  p.multiplier = 1.0;
  p.cap = std::chrono::microseconds(1000);
  p.jitter = 0.25;
  Backoff b(p, /*seed=*/42);
  for (int i = 0; i < 100; ++i) {
    const auto d = b.next().count();
    EXPECT_GE(d, 750);
    EXPECT_LE(d, 1250);
  }
}

TEST(MetricsTest, RecordsCountsErrorsAndPercentiles) {
  MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i) {
    reg.record(as_u32(MsgType::kSubmit), static_cast<double>(i));
  }
  reg.record(as_u32(MsgType::kDeleteJob), 5.0, /*error=*/true);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.rpcs.size(), 2u);
  EXPECT_EQ(snap.total_calls(), 101u);

  const auto* submit = snap.find(as_u32(MsgType::kSubmit));
  ASSERT_NE(submit, nullptr);
  EXPECT_EQ(submit->calls, 100u);
  EXPECT_EQ(submit->errors, 0u);
  EXPECT_NEAR(submit->mean_ms, 50.5, 0.1);
  EXPECT_GE(submit->p99_ms, submit->p50_ms);
  EXPECT_GE(submit->max_ms, submit->p99_ms);
  EXPECT_DOUBLE_EQ(submit->max_ms, 100.0);
  EXPECT_EQ(submit->name, msg_type_name(as_u32(MsgType::kSubmit)));

  const auto* del = snap.find(as_u32(MsgType::kDeleteJob));
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->errors, 1u);

  const auto table = render_metrics(snap);
  EXPECT_NE(table.find(msg_type_name(as_u32(MsgType::kSubmit))),
            std::string::npos);
}

TEST(MsgTypeNameTest, KnownAndUnknownTypes) {
  EXPECT_EQ(msg_type_name(as_u32(MsgType::kSubmit)), "SUBMIT");
  // Unknown codes render as hex instead of crashing or aliasing.
  const auto unknown = msg_type_name(0xDEADBEEF);
  EXPECT_NE(unknown.find("DEADBEEF"), std::string::npos);
}

// ---- cluster level --------------------------------------------------------

TEST(SvcClusterTest, StatJobsAnsweredDuringSubmitFlood) {
  auto cfg = core::DacClusterConfig::fast();
  cfg.compute_nodes = 1;
  cfg.accel_nodes = 1;
  // Make every request expensive: qstat shares the serialized lane with the
  // submit flood and queues behind it.
  cfg.timing.server_service_cost = std::chrono::microseconds(10'000);
  core::DacCluster cluster(cfg);

  std::atomic<bool> flooding{true};
  simtime::ActorThread flood([&] {
    for (int i = 0; i < 30; ++i) {
      util::ByteWriter w;
      w.put<std::uint64_t>(1);
      (void)cluster.submit_program(core::kSleepProgram, 1, 0,
                                   std::move(w).take());
    }
    flooding = false;
  });

  // Issue reads while the flood is in flight; each one must come back even
  // though the lane is busy the whole time.
  int reads = 0;
  auto ifl = cluster.client();
  while (flooding && reads < 50) {
    (void)ifl.stat_jobs();
    ++reads;
  }
  flood.join();
  EXPECT_GT(reads, 0);

  // The server recorded per-RPC metrics for both request types.
  const auto snap = cluster.metrics_snapshot();
  const auto* submit = snap.find(as_u32(MsgType::kSubmit));
  ASSERT_NE(submit, nullptr);
  EXPECT_EQ(submit->calls, 30u);
  const auto* stat = snap.find(as_u32(MsgType::kStatJobs));
  ASSERT_NE(stat, nullptr);
  EXPECT_GE(stat->calls, static_cast<std::uint64_t>(reads));
  EXPECT_GT(stat->p50_ms, 0.0);
}

}  // namespace
}  // namespace dac::svc

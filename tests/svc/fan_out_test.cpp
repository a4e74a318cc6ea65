// ServiceLoop::call_all, the scatter/gather fan-out behind the mother
// superior's JOIN/DYNJOIN/DISJOIN: every request leaves before any reply is
// served, replies are matched by request id, one deadline bounds the whole
// fan-out, each target gets its own client span, the continuation runs under
// the caller's context, and closing the endpoint drops a pending fan-out.
// FanOutTest runs on the DiscreteEvent clock, so the elapsed times are exact
// virtual durations; FanOutRetransmitTest, which loses requests, runs under
// both clock modes.
#include "svc/service_loop.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/clock_mode.hpp"
#include "harness/fault_one.hpp"
#include "svc/backoff.hpp"
#include "svc/deadlines.hpp"
#include "trace/trace.hpp"
#include "util/sync.hpp"
#include "vnet/cluster.hpp"

namespace dac::svc {
namespace {

using namespace std::chrono_literals;
using torque::MsgType;
using torque::ReplyCode;

util::Bytes text(const std::string& s) {
  util::ByteWriter w;
  w.put_string(s);
  return std::move(w).take();
}

std::string text_of(const util::Bytes& b) {
  util::ByteReader r(b);
  return r.get_string();
}

class FanOutTest : public ::testing::Test {
 protected:
  // Caller on node 0, targets on node 1: each round trip costs 2 x 50 us.
  explicit FanOutTest(simtime::Mode mode = simtime::Mode::kDiscreteEvent)
      : mode_(mode),
        cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 2;
          t.network.latency = 50us;
          t.network.loopback_latency = 5us;
          t.process_start_delay = 0us;
          return t;
        }()) {}

  ~FanOutTest() override { cluster_.shutdown(); }

  // A ServiceLoop daemon on node 1 answering `type` through `handler` after
  // `cost` of simulated service time; returns its address.
  vnet::Address serve(MsgType type, std::chrono::microseconds cost,
                      ServiceLoop::Handler handler) {
    auto ep = cluster_.node(1).open_endpoint();
    const auto addr = ep->address();
    auto* raw = ep.get();
    endpoints_.push_back(std::move(ep));
    procs_.push_back(cluster_.node(1).spawn(
        {.name = "target"}, [raw, type, cost, handler](vnet::Process& p) {
          p.adopt_mailbox(raw->mailbox_weak());
          ServiceLoop loop(*raw, ServiceConfig{.name = "target",
                                               .service_cost = cost});
          loop.on(type, handler);
          loop.run();
        }));
    return addr;
  }

  // Serves a ServiceLoop in a process on node 0 and calls `start` on its
  // loop thread, from the handler of a notification the loop sends itself.
  // Returns once run() returned.
  void run_caller(const std::function<void(ServiceLoop&)>& start) {
    auto caller = cluster_.node(0).spawn({.name = "caller"},
                                         [&](vnet::Process& p) {
      auto ep = p.open_endpoint();
      ServiceLoop loop(*ep, ServiceConfig{.name = "caller"});
      loop.on(MsgType::kSchedWake,
              [&](const Request&, Responder&) { start(loop); });
      notify(*ep, ep->address(), MsgType::kSchedWake, {});
      loop.run();
    });
    caller->join();
  }

  // Runs call_all on a caller loop; records the virtual time it took and
  // closes the loop's endpoint from the continuation.
  std::vector<Outcome> fan_out(const std::vector<vnet::Address>& targets,
                               std::chrono::milliseconds deadline) {
    std::vector<Outcome> out;
    run_caller([&](ServiceLoop& loop) {
      const auto start = simtime::now();
      loop.call_all(targets, MsgType::kJoinJob, text("join"), deadline,
                    [&, start](std::vector<Outcome> outcomes) {
                      out = std::move(outcomes);
                      elapsed_ = simtime::now() - start;
                      loop.endpoint().close();
                    });
    });
    return out;
  }

  dac::testing::ClockModeGuard mode_;
  vnet::Cluster cluster_;
  std::vector<std::unique_ptr<vnet::Endpoint>> endpoints_;
  std::vector<vnet::ProcessPtr> procs_;
  simtime::Duration elapsed_{};
};

TEST_F(FanOutTest, EightTargetsAnswerInOneRoundTrip) {
  std::vector<vnet::Address> targets;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(serve(MsgType::kJoinJob, 1ms,
                            [i](const Request&, Responder& resp) {
                              resp.ok(text("t" + std::to_string(i)));
                            }));
  }
  const auto out = fan_out(targets, 1000ms);

  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    EXPECT_EQ(text_of(*out[i].reply), "t" + std::to_string(i));
  }
  // One service cost plus one round trip; a serial fan-out would take 8 ms.
  EXPECT_GE(elapsed_, 1ms);
  EXPECT_LT(elapsed_, 2ms);
}

TEST_F(FanOutTest, MixedOutcomesSettleAtTheOneDeadline) {
  const auto ok = serve(MsgType::kJoinJob, 0us,
                        [](const Request&, Responder& resp) {
                          resp.ok(text("joined"));
                        });
  const auto failing = serve(MsgType::kJoinJob, 0us,
                             [](const Request&, Responder& resp) {
                               resp.error(ReplyCode::kUnknownJob, "no job");
                             });
  // Never bound: two silent targets, so one deadline per target would show.
  const auto silent = cluster_.node(1).allocate_address();
  const auto mute = cluster_.node(1).allocate_address();

  constexpr auto kDeadline = 100ms;
  const auto out = fan_out({silent, ok, failing, mute}, kDeadline);

  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[0].ok());
  EXPECT_EQ(out[0].error, "deadline");
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(text_of(*out[1].reply), "joined");
  EXPECT_TRUE(out[1].error.empty());
  EXPECT_FALSE(out[2].ok());
  EXPECT_EQ(out[2].error, "no job");
  EXPECT_FALSE(out[3].ok());
  EXPECT_EQ(out[3].error, "deadline");
  // The silent targets hold the fan-out to its single deadline (the wait
  // rounds up to whole milliseconds), not to one deadline per target.
  EXPECT_GE(elapsed_, kDeadline);
  EXPECT_LE(elapsed_, kDeadline + 1ms);
}

TEST_F(FanOutTest, RepliesAreMatchedByIdAndStaleOnesIgnored) {
  // One hand-driven daemon behind two addresses: it takes both requests,
  // then answers out of order — first a reply to an earlier request id that
  // is not part of this fan-out, then the second target, then a duplicate
  // of that answer, then the first target.
  auto first = cluster_.node(1).open_endpoint();
  auto second = cluster_.node(1).open_endpoint();
  auto* a = first.get();
  auto* b = second.get();
  auto daemon = cluster_.node(1).spawn({.name = "reorder"},
                                       [a, b](vnet::Process& p) {
    p.adopt_mailbox(a->mailbox_weak());
    p.adopt_mailbox(b->mailbox_weak());
    auto ma = a->recv();
    auto mb = b->recv();
    if (!ma || !mb) return;
    const auto ra = parse_request(*ma);
    const auto rb = parse_request(*mb);
    ASSERT_LT(ra.id, rb.id);
    reply_ok_to(*b, rb.from, ra.id - 1, text("stale"));
    reply_ok(*b, rb, text("second"));
    reply_ok(*b, rb, text("duplicate"));
    reply_ok(*a, ra, text("first"));
  });

  const auto out = fan_out({a->address(), b->address()}, 1000ms);
  daemon->join();

  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].ok()) << out[0].error;
  ASSERT_TRUE(out[1].ok()) << out[1].error;
  EXPECT_EQ(text_of(*out[0].reply), "first");
  EXPECT_EQ(text_of(*out[1].reply), "second");
}

TEST_F(FanOutTest, EachTargetGetsItsOwnClientSpan) {
  trace::Recorder rec;
  rec.install();
  // A fast and a slow target: each client span ends when its target
  // answers, not when the whole fan-out does.
  std::vector<vnet::Address> targets;
  for (const auto cost : {0us, 5000us}) {
    targets.push_back(serve(MsgType::kJoinJob, cost,
                            [](const Request&, Responder& resp) {
                              resp.ok();
                            }));
  }
  trace::Context parent;
  trace::Context after;
  run_caller([&](ServiceLoop& loop) {
    trace::SpanScope launch("launch");
    parent = launch.context();
    loop.call_all(targets, MsgType::kJoinJob, {}, 1000ms,
                  [&](std::vector<Outcome>) {
                    after = trace::current();
                    loop.endpoint().close();
                  });
  });
  cluster_.shutdown();  // every serve span is recorded once the loops exit
  rec.uninstall();

  // The continuation runs under the caller's context.
  EXPECT_EQ(after.span, parent.span);
  EXPECT_EQ(after.trace, parent.trace);
  std::vector<trace::Span> rpcs;
  std::vector<trace::Span> serves;
  for (const auto& span : rec.snapshot()) {
    if (span.name == "rpc.JOIN_JOB") rpcs.push_back(span);
    if (span.name == "serve.JOIN_JOB") serves.push_back(span);
  }
  ASSERT_EQ(rpcs.size(), 2u);
  ASSERT_EQ(serves.size(), 2u);
  // Sibling client spans under the caller's context, one per target, each
  // the parent of that target's serve span.
  EXPECT_EQ(rpcs[0].parent, parent.span);
  EXPECT_EQ(rpcs[1].parent, parent.span);
  EXPECT_NE(rpcs[0].id, rpcs[1].id);
  EXPECT_NE(serves[0].parent, serves[1].parent);
  for (const auto& serve_span : serves) {
    EXPECT_TRUE(serve_span.parent == rpcs[0].id ||
                serve_span.parent == rpcs[1].id);
  }
  // Spans are recorded as they end: the fast target's first, one round
  // trip in; the slow target's after its 5 ms of service.
  EXPECT_LT(rpcs[0].duration_ms(), 1.0);
  EXPECT_GE(rpcs[1].duration_ms(), 5.0);
}

TEST_F(FanOutTest, ClosingTheEndpointDropsThePendingFanOut) {
  const auto silent = cluster_.node(1).allocate_address();
  std::atomic<bool> continued{false};
  std::atomic<bool> returned{false};
  simtime::TimePoint returned_at;
  Latch started(1);  // a stop before the fan-out starts would skip it
  auto caller = cluster_.node(0).spawn({.name = "caller"},
                                       [&](vnet::Process& p) {
    auto ep = p.open_endpoint();
    ServiceLoop loop(*ep, ServiceConfig{.name = "caller"});
    loop.on(MsgType::kSchedWake, [&](const Request&, Responder&) {
      loop.call_all({silent, silent}, MsgType::kDisjoinJob, {},
                    deadlines::kDefault,
                    [&](std::vector<Outcome>) { continued = true; });
      started.count_down();
    });
    notify(*ep, ep->address(), MsgType::kSchedWake, {});
    loop.run();
    returned_at = simtime::now();
    returned = true;
  });
  const auto kill_at = simtime::now() + 2ms;
  auto killer = cluster_.node(1).spawn({.name = "killer"},
                                       [&](vnet::Process&) {
    started.wait();
    simtime::sleep_until(kill_at);
    caller->request_stop();  // closes the caller's endpoint
  });
  killer->join();
  caller->join();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(continued);
  // run() returned at the stop, long before the fan-out's deadline.
  EXPECT_LT(returned_at - kill_at, 1ms);
}

// A lost request is resent on the caller's backoff under its own request
// id, and the target's dedup cache keeps any copy from running twice.
class FanOutRetransmitTest
    : public FanOutTest,
      public ::testing::WithParamInterface<simtime::Mode> {
 protected:
  FanOutRetransmitTest() : FanOutTest(GetParam()) {}
};

TEST_P(FanOutRetransmitTest, TargetWhoseFirstJoinIsLostAnswersOnce) {
  std::atomic<int> runs{0};
  const auto target = serve(MsgType::kJoinJob, 0us,
                            [&runs](const Request&, Responder& resp) {
                              ++runs;
                              resp.ok(text("joined"));
                            });
  const auto fault = std::make_shared<dac::testing::FaultOne>(
      MsgType::kJoinJob, 1, dac::testing::kDrop);
  cluster_.fabric().set_fault_injector(fault);

  constexpr auto kDeadline = 1000ms;
  const auto out = fan_out({target}, kDeadline);

  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].ok()) << out[0].error;
  EXPECT_EQ(text_of(*out[0].reply), "joined");
  EXPECT_EQ(runs.load(), 1);
  EXPECT_GE(fault->seen(), 2) << "the lost JOIN_JOB was never resent";
  EXPECT_LT(elapsed_, kDeadline);
}

TEST_P(FanOutRetransmitTest, SilentTargetEndsAtItsDeadline) {
  const auto silent = cluster_.node(1).allocate_address();  // never bound

  constexpr auto kDeadline = 100ms;
  const auto out = fan_out({silent}, kDeadline);

  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok());
  EXPECT_EQ(out[0].error, "deadline");
  const auto sent = cluster_.fabric().drops_to(silent);
  EXPECT_GE(sent, 2u) << "the silent target was never resent";
  EXPECT_GE(elapsed_, kDeadline);
  // RealTime cannot promise every attempt or the upper bound on a loaded
  // host.
  if (GetParam() == simtime::Mode::kDiscreteEvent) {
    EXPECT_EQ(sent, static_cast<std::uint64_t>(RetryPolicy{}.max_attempts));
    EXPECT_LE(elapsed_, kDeadline + 1ms);
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, FanOutRetransmitTest,
                         dac::testing::kBothClocks,
                         dac::testing::clock_mode_name);

}  // namespace
}  // namespace dac::svc

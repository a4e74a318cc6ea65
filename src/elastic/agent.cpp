#include "elastic/agent.hpp"

#include <utility>

#include "svc/deadlines.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::elastic {

namespace {
const util::Logger kLog("elastic-agent");
}  // namespace

using torque::MsgType;

ElasticAgent::ElasticAgent(vnet::Process& proc, AgentConfig config)
    : proc_(proc), config_(config), ep_(proc.open_endpoint()) {
  svc::ServiceConfig sc;
  sc.name = "elastic-agent";
  loop_ = std::make_unique<svc::ServiceLoop>(*ep_, sc);
  auto& loop = *loop_;
  loop.on(MsgType::kElastOffer,
          [this](const svc::Request& req, svc::Responder&) {
            handle_offer(req);
          });
  loop.on(MsgType::kElastReconfig,
          [this](const svc::Request& req, svc::Responder&) {
            handle_reconfig(req);
          });
}

ElasticAgent::~ElasticAgent() { stop(); }

void ElasticAgent::announce() {
  send_registration();
  if (!thread_) {
    thread_.emplace([this] {
      try {
        loop_->run();
      } catch (const util::StoppedError&) {
        // Process killed mid-job (qdel, walltime): the loop thread just
        // exits; pending offers expire server-side.
      }
    });
  }
}

void ElasticAgent::set_appetite(std::int32_t appetite) {
  config_.appetite = appetite;
  send_registration();
}

void ElasticAgent::send_registration() {
  Registration reg;
  reg.job = config_.job;
  reg.agent = ep_->address();
  // Only advertise what the application actually wired a callback for: a
  // capability without an apply path would turn every offer into a nack.
  reg.can_grow = config_.accept_grow && static_cast<bool>(grow_fn_);
  reg.can_shrink = config_.accept_shrink && static_cast<bool>(shrink_fn_);
  reg.appetite = config_.appetite;
  util::ByteWriter w;
  put_registration(w, reg);
  const svc::Caller caller(proc_, config_.server, config_.retry);
  (void)caller.call(MsgType::kElastRegister, std::move(w).take(),
                    {.deadline = svc::deadlines::kControl});
}

void ElasticAgent::handle_offer(const svc::Request& req) {
  util::ByteReader r(req.body);
  const Offer offer = get_offer(r);
  Ack ack;
  ack.offer_id = offer.offer_id;
  ack.job = config_.job;
  ack.accept = offer.kind == OfferKind::kGrow
                   ? config_.accept_grow && static_cast<bool>(grow_fn_)
                   : config_.accept_shrink && static_cast<bool>(shrink_fn_);
  trace::SpanScope span(ack.accept ? "elastic.ack" : "elastic.nack");
  kLog.debug("job {} {}s {} offer {} ({} hosts)", config_.job,
             ack.accept ? "ack" : "nack", offer_kind_name(offer.kind),
             offer.offer_id, offer.hosts.size());
  util::ByteWriter w;
  put_ack(w, ack);
  try {
    const svc::Caller caller(proc_, config_.server, config_.retry);
    (void)caller.call(MsgType::kElastAck, std::move(w).take(),
                      {.deadline = svc::deadlines::kElasticAck});
  } catch (const svc::CallError& e) {
    // Late ack: the server already timed the offer out and reverted the
    // reservation; nothing to undo on this side.
    kLog.debug("job {} ack for offer {} rejected: {}", config_.job,
               offer.offer_id, e.what());
  } catch (const svc::DeadlineError&) {
    // Server unreachable; the pending offer expires on its own over there.
    kLog.debug("job {} ack for offer {} timed out", config_.job,
               offer.offer_id);
  } catch (const util::StoppedError&) {
    // Process being killed mid-ack; the loop drains and exits right after.
  }
}

void ElasticAgent::handle_reconfig(const svc::Request& req) {
  util::ByteReader r(req.body);
  Pending pending{get_offer(r), trace::current()};
  if (!inbox_.push(std::move(pending))) {
    // stop() already closed the inbox; the job is past caring.
    kLog.debug("job {} dropped reconfig after stop", config_.job);
  }
}

std::size_t ElasticAgent::service(std::chrono::milliseconds wait) {
  std::size_t applied = 0;
  auto item = wait.count() > 0 ? inbox_.pop_for(wait) : inbox_.try_pop();
  while (item) {
    if (proc_.stop_requested()) throw util::StoppedError();
    apply(*item);
    ++applied;
    item = inbox_.try_pop();
  }
  if (proc_.stop_requested()) throw util::StoppedError();
  return applied;
}

void ElasticAgent::apply(const Pending& pending) {
  trace::ScopedContext ctx(pending.ctx);
  trace::SpanScope span("elastic.apply");
  const auto& fn =
      pending.reconfig.kind == OfferKind::kGrow ? grow_fn_ : shrink_fn_;
  if (fn) fn(pending.reconfig);
}

void ElasticAgent::stop() {
  ep_->close();
  inbox_.close();
  if (thread_) {
    thread_->join();
    thread_.reset();
  }
}

}  // namespace dac::elastic

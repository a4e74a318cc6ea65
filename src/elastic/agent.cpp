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
          [this](const svc::Request& req, svc::Responder& resp) {
            handle_offer(req, resp);
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
  const svc::Caller caller(proc_, config_.server);
  (void)caller.call(MsgType::kElastRegister, std::move(w).take(),
                    {.deadline = svc::deadlines::kControl});
}

void ElasticAgent::handle_offer(const svc::Request& req,
                                svc::Responder& resp) {
  util::ByteReader r(req.body);
  const Offer offer = get_offer(r);
  const bool accept =
      offer.kind == OfferKind::kGrow
          ? config_.accept_grow && static_cast<bool>(grow_fn_)
          : config_.accept_shrink && static_cast<bool>(shrink_fn_);
  trace::SpanScope span(accept ? "elastic.ack" : "elastic.nack");
  kLog.debug("job {} {}s {} offer {} ({} hosts)", config_.job,
             accept ? "ack" : "nack", offer_kind_name(offer.kind),
             offer.offer_id, offer.hosts.size());
  // The reply is the ack. One that lands after the server's deadline
  // settles nothing there: the offer was already reverted.
  util::ByteWriter w;
  w.put_bool(accept);
  resp.ok(std::move(w).take());
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

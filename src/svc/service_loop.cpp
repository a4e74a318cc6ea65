#include "svc/service_loop.hpp"
#include "simtime/clock.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace dac::svc {

namespace {
const util::Logger kLog("svc.loop");
}  // namespace

// ---- Responder ------------------------------------------------------------

bool Responder::completed() const { return !st_ || st_->done; }

void Responder::ok(util::Bytes body) const {
  if (completed()) return;
  st_->done = true;
  st_->loop->finish_reply(*st_, make_ok_reply(st_->id, body),
                          /*error=*/false);
}

void Responder::error(ReplyCode code, const std::string& message) const {
  if (completed()) return;
  st_->done = true;
  st_->loop->finish_reply(*st_, make_error_reply(st_->id, code, message),
                          /*error=*/true);
}

// ---- ServiceLoop ----------------------------------------------------------

ServiceLoop::ServiceLoop(vnet::Endpoint& ep, ServiceConfig config,
                         MetricsRegistry* metrics)
    : ep_(ep), cfg_(std::move(config)), metrics_(metrics) {}

void ServiceLoop::on(MsgType type, Handler handler) {
  handlers_[as_u32(type)] = std::move(handler);
}

void ServiceLoop::add_tick(std::chrono::milliseconds interval, TickFn fn) {
  ticks_.push_back(Tick{interval, std::move(fn), {}});
}

ServiceLoop::TimerId ServiceLoop::add_timer(
    std::chrono::steady_clock::time_point at, TickFn fn) {
  DAC_DCHECK(std::this_thread::get_id() == loop_thread_,
             "{}: timer armed off the loop thread", cfg_.name);
  const TimerId id{at, next_timer_seq_++};
  timers_.emplace(id, std::move(fn));
  return id;
}

void ServiceLoop::cancel_timer(const TimerId& id) {
  DAC_DCHECK(std::this_thread::get_id() == loop_thread_,
             "{}: timer cancelled off the loop thread", cfg_.name);
  timers_.erase(id);
}

void ServiceLoop::call_all(const std::vector<vnet::Address>& targets,
                           MsgType type, const util::Bytes& body,
                           std::chrono::milliseconds deadline,
                           FanOutDone done) {
  DAC_DCHECK(std::this_thread::get_id() == loop_thread_,
             "{}: fan-out started off the loop thread", cfg_.name);
  if (targets.empty()) {
    done({});
    return;
  }
  auto fan = std::make_shared<FanOut>();
  fan->ctx = trace::current();
  fan->done = std::move(done);
  fan->out.resize(targets.size());
  fan->pending = targets.size();
  // Scatter: every request leaves before any reply can be served.
  const auto span_name = "rpc." + msg_type_name(as_u32(type));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    fan->ids.push_back(next_request_id());
    awaited_[fan->ids.back()] = Awaited{fan, i};
    const auto& span = fan->spans.emplace_back(span_name, fan->ctx);
    ep_.send(targets[i], as_u32(type),
             envelope(fan->ids.back(), span.context(), body));
  }
  fan->deadline = add_timer(simtime::now() + deadline,
                            [this, fan] { expire_fan_out(*fan); });
}

void ServiceLoop::settle_reply(const vnet::Message& msg) {
  Outcome outcome;
  decltype(awaited_)::iterator it;
  try {
    const auto id = util::ByteReader(msg.payload).get<std::uint64_t>();
    it = awaited_.find(id);
    if (it == awaited_.end()) return;  // stray, stale or duplicate
    outcome.reply = parse_reply(msg, id);
  } catch (const CallError& e) {
    outcome.error = e.what();
  } catch (const util::DecodeError& e) {
    kLog.warn("{}: malformed reply from {}: {}", cfg_.name, msg.from.str(),
              e.what());
    return;
  }
  const auto fan = std::move(it->second.fan_out);
  const auto i = it->second.target;
  awaited_.erase(it);
  if (!outcome.ok()) fan->spans[i].note("error", "call");
  fan->spans[i].end();
  fan->out[i] = std::move(outcome);
  if (--fan->pending == 0) finish_fan_out(*fan);
}

void ServiceLoop::expire_fan_out(FanOut& fan) {
  for (std::size_t i = 0; i < fan.ids.size(); ++i) {
    if (awaited_.erase(fan.ids[i]) == 0) continue;  // already settled
    fan.spans[i].note("error", "deadline");
    fan.spans[i].end();
    fan.out[i].error = "deadline";
  }
  finish_fan_out(fan);
}

void ServiceLoop::finish_fan_out(FanOut& fan) {
  cancel_timer(fan.deadline);
  const trace::ScopedContext ctx(fan.ctx);
  try {
    fan.done(std::move(fan.out));
  } catch (const util::StoppedError&) {
    throw;  // cooperative kill: unwind the loop
  } catch (const std::exception& e) {
    kLog.warn("{}: fan-out continuation failed: {}", cfg_.name, e.what());
  }
}

void ServiceLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  const auto now = simtime::now();
  for (auto& t : ticks_) t.last = now;
  trace::set_thread_actor(cfg_.name);

  while (true) {
    auto timeout = next_tick_timeout();
    auto msg = timeout ? ep_.recv_for(*timeout) : ep_.recv();
    if (msg) {
      serve(std::move(*msg));
    } else if (ep_.closed()) {
      break;
    }
    fire_due_ticks();
  }
  // Pending fan-outs are dropped: their continuations never run.
  awaited_.clear();
  timers_.clear();
}

void ServiceLoop::serve(vnet::Message msg) {
  if (msg.type == as_u32(MsgType::kReply)) {
    settle_reply(msg);
    return;
  }
  Request req;
  try {
    req = parse_request(msg);
  } catch (const util::DecodeError& e) {
    kLog.warn("{}: malformed request from {}: {}", cfg_.name, msg.from.str(),
              e.what());
    return;
  }

  if (auto it = completed_.find(req.id); it != completed_.end()) {
    // Retransmit of an answered request: resend the cached reply. Count
    // before sending so the counter is visible by the time the caller can
    // observe the duplicate reply.
    deduped_.fetch_add(1, std::memory_order_relaxed);
    ep_.send(req.from, as_u32(MsgType::kReply), it->second);
    kLog.debug("{}: resent cached reply for req {}", cfg_.name, req.id);
    return;
  }
  if (auto it = pending_.find(req.id); it != pending_.end()) {
    if (auto st = it->second.lock()) {
      // Retransmit of an in-flight request: just retarget the reply
      // (counted first, same ordering rule as above).
      deduped_.fetch_add(1, std::memory_order_relaxed);
      st->to = req.from;
      return;
    }
    pending_.erase(it);
  }
  if (notified_.contains(req.id)) {
    // Duplicate of a notification that already ran: drop it unanswered.
    deduped_.fetch_add(1, std::memory_order_relaxed);
    kLog.debug("{}: dropped duplicate notification {}", cfg_.name, req.id);
    return;
  }

  const auto it = handlers_.find(as_u32(req.type));
  if (it == handlers_.end()) {
    kLog.warn("{}: unknown request type {} from {}", cfg_.name,
              msg_type_name(as_u32(req.type)), req.from.str());
    reply_error_to(ep_, req.from, req.id, ReplyCode::kBadRequest,
                   cfg_.name + ": unknown request type " +
                       msg_type_name(as_u32(req.type)));
    return;
  }

  auto st = std::make_shared<detail::ResponderState>();
  st->loop = this;
  st->id = req.id;
  st->type = as_u32(req.type);
  st->start = simtime::now();
  st->to = req.from;
  // Registered before dispatch so a retransmit that arrives while the reply
  // is held is recognized as a duplicate.
  pending_[st->id] = st;
  if (cfg_.service_cost.count() > 0) {
    simtime::sleep_for(cfg_.service_cost);
  }
  Responder resp(st);
  // Handler-side span, child of the caller's rpc.* span via the wire
  // context. It becomes the thread's current context, so everything the
  // handler sends (notifies, nested calls) joins the same trace.
  trace::SpanScope span("serve." + msg_type_name(st->type), req.ctx);
  try {
    it->second(req, resp);
  } catch (const util::StoppedError&) {
    throw;  // cooperative kill: unwind the loop
  } catch (const std::exception& e) {
    kLog.warn("{}: handler for {} failed: {}", cfg_.name,
              msg_type_name(st->type), e.what());
    if (!resp.completed()) resp.error(ReplyCode::kError, e.what());
  }
  if (!resp.completed() && st.use_count() <= 2) {
    // Handler returned without replying and without keeping the Responder:
    // a notification-style request. Record it and remember its id.
    if (metrics_) {
      metrics_->record(st->type,
                       std::chrono::duration<double, std::milli>(
                           simtime::now() - st->start)
                           .count(),
                       false);
    }
    remember_notification(st->id);
  }
}

void ServiceLoop::finish_reply(detail::ResponderState& st,
                               const util::Bytes& payload, bool error) {
  DAC_DCHECK(std::this_thread::get_id() == loop_thread_,
             "{}: reply sent off the loop thread", cfg_.name);
  if (cfg_.dedup_window > 0) {
    completed_[st.id] = payload;
    completed_order_.push_back(st.id);
    while (completed_order_.size() > cfg_.dedup_window) {
      completed_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
  }
  pending_.erase(st.id);
  // Record before sending: a caller that already has the reply must find
  // its call in any later metrics snapshot.
  if (metrics_) {
    metrics_->record(st.type,
                     std::chrono::duration<double, std::milli>(
                         simtime::now() - st.start)
                         .count(),
                     error);
  }
  ep_.send(st.to, as_u32(MsgType::kReply), payload);
}

void ServiceLoop::remember_notification(std::uint64_t id) {
  pending_.erase(id);
  if (cfg_.dedup_window == 0) return;
  notified_.insert(id);
  notified_order_.push_back(id);
  while (notified_order_.size() > cfg_.dedup_window) {
    notified_.erase(notified_order_.front());
    notified_order_.pop_front();
  }
}

std::optional<std::chrono::milliseconds> ServiceLoop::next_tick_timeout() {
  if (ticks_.empty() && timers_.empty()) return std::nullopt;
  const auto now = simtime::now();
  auto soonest = std::chrono::milliseconds::max();
  const auto until = [&](std::chrono::steady_clock::time_point due) {
    soonest = std::min(
        soonest, std::chrono::ceil<std::chrono::milliseconds>(due - now));
  };
  for (const auto& t : ticks_) until(t.last + t.interval);
  if (!timers_.empty()) until(timers_.begin()->first.at);
  return std::max(soonest, std::chrono::milliseconds(1));
}

void ServiceLoop::fire_due_ticks() {
  const auto now = simtime::now();
  for (auto& t : ticks_) {
    if (now - t.last >= t.interval) {
      t.last = now;
      t.fn();
    }
  }
  // A timer may arm or cancel others, so take one at a time.
  while (!timers_.empty() && timers_.begin()->first.at <= now) {
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

}  // namespace dac::svc

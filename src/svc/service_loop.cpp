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
    : ep_(ep), cfg_(std::move(config)), metrics_(metrics), calls_(ep) {}

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
  auto join = std::make_shared<Join>();
  join->ctx = trace::current();
  join->done = std::move(done);
  join->out.resize(targets.size());
  join->pending = targets.size();
  // Scatter: every request leaves before any reply can be served.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    (void)calls_.call(targets[i], type, body, deadline,
                      [this, join, i](Outcome outcome) {
                        join->out[i] = std::move(outcome);
                        if (--join->pending == 0) finish_fan_out(*join);
                      });
  }
}

void ServiceLoop::finish_fan_out(Join& join) {
  const trace::ScopedContext ctx(join.ctx);
  try {
    join.done(std::move(join.out));
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
    auto timeout = next_timeout();
    auto msg = timeout ? ep_.recv_for(*timeout) : ep_.recv();
    if (msg) {
      serve(std::move(*msg));
    } else if (ep_.closed()) {
      break;
    }
    fire_due();
  }
  // Pending fan-outs are dropped: their continuations never run.
  timers_.clear();
}

void ServiceLoop::serve(vnet::Message msg) {
  if (msg.type == as_u32(MsgType::kReply)) {
    (void)calls_.settle(msg);
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
  completed_[st.id] = payload;
  completed_order_.push_back(st.id);
  while (completed_order_.size() > kDedupWindow) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
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
  notified_.insert(id);
  notified_order_.push_back(id);
  while (notified_order_.size() > kDedupWindow) {
    notified_.erase(notified_order_.front());
    notified_order_.pop_front();
  }
}

std::optional<std::chrono::milliseconds> ServiceLoop::next_timeout() {
  const auto call_due = calls_.next_due();
  if (ticks_.empty() && timers_.empty() && !call_due) return std::nullopt;
  const auto now = simtime::now();
  auto soonest = std::chrono::milliseconds::max();
  const auto until = [&](std::chrono::steady_clock::time_point due) {
    soonest = std::min(
        soonest, std::chrono::ceil<std::chrono::milliseconds>(due - now));
  };
  for (const auto& t : ticks_) until(t.last + t.interval);
  if (!timers_.empty()) until(timers_.begin()->first.at);
  if (call_due) until(*call_due);
  return std::max(soonest, std::chrono::milliseconds(1));
}

void ServiceLoop::fire_due() {
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
  calls_.fire_due();
}

}  // namespace dac::svc

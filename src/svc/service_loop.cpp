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

bool Responder::completed() const {
  if (!st_) return true;
  ScopedLock lock(st_->mu);
  return st_->done;
}

void Responder::ok(util::Bytes body) const {
  if (!st_) return;
  const auto payload = make_ok_reply(st_->id, body);
  vnet::Address to;
  {
    ScopedLock lock(st_->mu);
    if (st_->done) return;
    st_->done = true;
    to = st_->to;
  }
  st_->loop->finish_reply(*st_, payload, to, /*error=*/false);
}

void Responder::error(ReplyCode code, const std::string& message) const {
  if (!st_) return;
  const auto payload = make_error_reply(st_->id, code, message);
  vnet::Address to;
  {
    ScopedLock lock(st_->mu);
    if (st_->done) return;
    st_->done = true;
    to = st_->to;
  }
  st_->loop->finish_reply(*st_, payload, to, /*error=*/true);
}

// ---- ServiceLoop ----------------------------------------------------------

ServiceLoop::ServiceLoop(vnet::Endpoint& ep, ServiceConfig config,
                         MetricsRegistry* metrics)
    : ep_(ep), cfg_(std::move(config)), metrics_(metrics) {}

ServiceLoop::~ServiceLoop() = default;

void ServiceLoop::on(MsgType type, ExecClass klass, Handler handler) {
  handlers_[as_u32(type)] = Entry{klass, std::move(handler)};
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

void ServiceLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  const auto now = simtime::now();
  for (auto& t : ticks_) t.last = now;
  trace::set_thread_actor(cfg_.name);

  const bool want_conc =
      std::any_of(handlers_.begin(), handlers_.end(), [](const auto& h) {
        return h.second.klass == ExecClass::kConcurrent;
      });
  if (want_conc) {
    simtime::Clock::instance().actor_started();
    conc_worker_ = std::thread([this] {
      simtime::AdoptScope actor;
      trace::set_thread_actor(cfg_.name);
      while (auto work = conc_queue_.pop()) {
        try {
          execute(std::move(*work));
        } catch (const util::StoppedError&) {
          break;
        }
      }
    });
  }

  const auto drain = [this] {
    conc_queue_.close();
    simtime::ExternalWaitScope quiescent;  // native join, clock-invisible
    if (conc_worker_.joinable()) conc_worker_.join();
  };

  try {
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
  } catch (...) {
    drain();
    throw;
  }
  drain();
}

void ServiceLoop::serve(vnet::Message msg) {
  if (msg.type == as_u32(MsgType::kReply)) return;  // stray reply; drop
  Request req;
  try {
    req = parse_request(msg);
  } catch (const util::DecodeError& e) {
    kLog.warn("{}: malformed request from {}: {}", cfg_.name, msg.from.str(),
              e.what());
    return;
  }

  {
    ScopedLock lock(dedup_mu_);
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
        ScopedLock slock(st->mu);
        st->to = req.from;
        return;
      }
      pending_.erase(it);
    }
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

  Work work;
  work.entry = &it->second;
  work.st = std::make_shared<detail::ResponderState>();
  work.st->loop = this;
  work.st->id = req.id;
  work.st->type = as_u32(req.type);
  work.st->start = simtime::now();
  work.st->to = req.from;
  work.req = std::move(req);
  {
    // Registered before dispatch so a retransmit racing with a
    // concurrent-lane execution is recognized as a duplicate.
    ScopedLock lock(dedup_mu_);
    pending_[work.st->id] = work.st;
  }

  if (work.entry->klass == ExecClass::kConcurrent && conc_worker_.joinable()) {
    if (!conc_queue_.push(std::move(work))) {
      DAC_CHECK(false, "{}: concurrent-lane queue closed while serving",
                cfg_.name);
    }
  } else {
    execute(std::move(work));
  }
}

void ServiceLoop::execute(Work work) {
  if (cfg_.service_cost.count() > 0) {
    simtime::sleep_for(cfg_.service_cost);
  }
  Responder resp(work.st);
  // Handler-side span, child of the caller's rpc.* span via the wire
  // context. It becomes the thread's current context, so everything the
  // handler sends (notifies, nested calls) joins the same trace.
  trace::SpanScope span("serve." + msg_type_name(work.st->type),
                        work.req.ctx);
  try {
    work.entry->fn(work.req, resp);
  } catch (const util::StoppedError&) {
    throw;  // cooperative kill: unwind the loop / worker
  } catch (const std::exception& e) {
    kLog.warn("{}: handler for {} failed: {}", cfg_.name,
              msg_type_name(work.st->type), e.what());
    if (!resp.completed()) resp.error(ReplyCode::kError, e.what());
  }
  if (!resp.completed() && work.st.use_count() <= 2) {
    // Handler returned without replying and without keeping the Responder:
    // a notification-style request. Record it and drop the pending entry.
    if (metrics_) {
      metrics_->record(work.st->type,
                       std::chrono::duration<double, std::milli>(
                           simtime::now() - work.st->start)
                           .count(),
                       false);
    }
    forget_pending(work.st->id);
  }
}

void ServiceLoop::finish_reply(detail::ResponderState& st,
                               const util::Bytes& payload,
                               const vnet::Address& to, bool error) {
  {
    ScopedLock lock(dedup_mu_);
    if (cfg_.dedup_window > 0) {
      completed_[st.id] = payload;
      completed_order_.push_back(st.id);
      while (completed_order_.size() > cfg_.dedup_window) {
        completed_.erase(completed_order_.front());
        completed_order_.pop_front();
      }
    }
    pending_.erase(st.id);
  }
  // Record before sending: a caller that already has the reply must find
  // its call in any later metrics snapshot.
  if (metrics_) {
    metrics_->record(st.type,
                     std::chrono::duration<double, std::milli>(
                         simtime::now() - st.start)
                         .count(),
                     error);
  }
  ep_.send(to, as_u32(MsgType::kReply), payload);
}

void ServiceLoop::forget_pending(std::uint64_t id) {
  ScopedLock lock(dedup_mu_);
  pending_.erase(id);
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

#include "trace/trace.hpp"
#include "simtime/clock.hpp"

#include <atomic>
#include <chrono>

namespace dac::trace {

namespace {

std::atomic<std::uint64_t> g_vclock{0};
std::atomic<Recorder*> g_recorder{nullptr};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             simtime::now().time_since_epoch())
      .count();
}

thread_local Context t_ctx;
thread_local SpanScope* t_active = nullptr;

const std::string& default_actor() {
  static const std::string kDefault = "client";
  return kDefault;
}

thread_local std::string t_actor;  // empty = default_actor()

// Opens a span of `parent` (a new trace when it is untraced) on this
// thread's actor.
Span begin_span(Recorder& rec, std::string name, Context parent) {
  Span s;
  s.trace = parent.traced() ? parent.trace : rec.new_trace_id();
  s.id = rec.new_span_id();
  s.parent = parent.span;
  s.name = std::move(name);
  s.actor = thread_actor();
  s.begin_tick = vclock_tick();
  s.begin_ns = rec.now_ns();
  return s;
}

}  // namespace

std::uint64_t vclock() { return g_vclock.load(std::memory_order_relaxed); }

std::uint64_t vclock_tick() {
  return g_vclock.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---- Recorder -------------------------------------------------------------

Recorder::Recorder() : epoch_ns_(steady_now_ns()) {}

Recorder::~Recorder() { uninstall(); }

void Recorder::install() { g_recorder.store(this, std::memory_order_release); }

void Recorder::uninstall() {
  Recorder* self = this;
  g_recorder.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
}

std::uint64_t Recorder::new_trace_id() {
  return next_trace_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Recorder::new_span_id() {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Recorder::now_ns() const { return steady_now_ns() - epoch_ns_; }

void Recorder::record(Span s) {
  ScopedLock lock(mu_);
  spans_.push_back(std::move(s));
  recorded_.notify_all();
}

std::vector<Span> Recorder::snapshot() const {
  ScopedLock lock(mu_);
  return spans_;
}

std::size_t Recorder::size() const {
  ScopedLock lock(mu_);
  return spans_.size();
}

bool Recorder::await_quiet(std::uint64_t trace_id,
                           std::chrono::milliseconds idle,
                           std::chrono::milliseconds timeout) {
  const auto deadline = simtime::now() + timeout;
  UniqueLock lock(mu_);
  while (true) {
    const std::size_t seen = count_locked(trace_id);
    const auto quiet_until = simtime::now() + idle;
    // Wait out the idle window; a matching recording restarts it.
    while (count_locked(trace_id) == seen &&
           recorded_.wait_until(lock, quiet_until) !=
               std::cv_status::timeout) {
    }
    if (count_locked(trace_id) == seen) return true;  // window untouched
    if (simtime::now() >= deadline) return false;
  }
}

std::size_t Recorder::count_locked(std::uint64_t trace_id) const {
  if (trace_id == 0) return spans_.size();
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (s.trace == trace_id) ++n;
  }
  return n;
}

Recorder* recorder() { return g_recorder.load(std::memory_order_acquire); }

// ---- thread-local context -------------------------------------------------

Context current() { return t_ctx; }

void set_thread_actor(std::string actor) { t_actor = std::move(actor); }

const std::string& thread_actor() {
  return t_actor.empty() ? default_actor() : t_actor;
}

ScopedContext::ScopedContext(Context ctx) : prev_(t_ctx) { t_ctx = ctx; }

ScopedContext::~ScopedContext() { t_ctx = prev_; }

// ---- DetachedSpan ---------------------------------------------------------

DetachedSpan::DetachedSpan(std::string name, Context parent)
    : rec_(recorder()), ctx_(parent) {
  if (rec_ == nullptr) return;  // inert: context() stays the parent
  span_ = begin_span(*rec_, std::move(name), parent);
  ctx_ = Context{span_.trace, span_.id};
}

DetachedSpan::~DetachedSpan() { end(); }

void DetachedSpan::note(std::string key, std::string value) {
  if (rec_ == nullptr) return;
  span_.notes.emplace_back(std::move(key), std::move(value));
}

void DetachedSpan::end() {
  if (rec_ == nullptr) return;
  span_.end_tick = vclock_tick();
  span_.end_ns = rec_->now_ns();
  std::exchange(rec_, nullptr)->record(std::move(span_));
}

// ---- SpanScope ------------------------------------------------------------

SpanScope::SpanScope(std::string name) : SpanScope(std::move(name), t_ctx) {}

SpanScope::SpanScope(std::string name, Context parent)
    : span_(std::move(name), parent), prev_ctx_(t_ctx),
      prev_active_(t_active) {
  if (!span_.recording()) return;  // inert: the caller's context stays
  t_ctx = span_.context();
  t_active = this;
}

SpanScope::~SpanScope() { end(); }

void SpanScope::end() {
  if (!span_.recording()) return;
  span_.end();
  t_ctx = prev_ctx_;
  t_active = prev_active_;
}

void note(std::string key, std::string value) {
  if (t_active != nullptr) t_active->note(std::move(key), std::move(value));
}

void event(std::string name,
           std::vector<std::pair<std::string, std::string>> notes) {
  Recorder* rec = recorder();
  if (rec == nullptr) return;
  Span s = begin_span(*rec, std::move(name), t_ctx);
  s.end_tick = s.begin_tick;
  s.end_ns = s.begin_ns;
  s.notes = std::move(notes);
  rec->record(std::move(s));
}

}  // namespace dac::trace

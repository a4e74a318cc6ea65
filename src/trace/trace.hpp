// Causal tracing for the virtual cluster. One trace follows a logical
// request — an IFL submission, a pbs_dynget, a fault recovery — across every
// daemon it touches: spans form a tree linked by {trace-id, parent-span-id},
// and the context rides inside the svc wire envelope so a handler's spans
// hang off the caller's span without any daemon knowing about its peers.
//
// Span timestamps come in two flavours:
//  - wall nanoseconds (steady clock, relative to the Recorder's epoch) for
//    humans and the Chrome about:tracing exporter;
//  - the vnet virtual clock (a process-wide logical counter advanced by
//    every fabric delivery and span event), which gives a total order that
//    is consistent with causality — the substrate for happens-before
//    assertions and for normalized golden traces that are bit-identical
//    across runs of the same seeded scenario.
//
// Tracing is off unless a Recorder is installed (tests/harness installs one
// per Scenario). With no recorder, SpanScope is inert and merely passes the
// parent context through, so traced binaries pay one atomic load per span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace dac::trace {

// The propagated part of a span: what travels on the wire and in thread-local
// storage. trace == 0 means "not traced".
struct Context {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;

  [[nodiscard]] bool traced() const { return trace != 0; }
};

// A finished span as the Recorder stores it.
struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root of its trace
  std::string name;
  std::string actor;  // which daemon/program recorded it
  std::uint64_t begin_tick = 0;  // virtual clock
  std::uint64_t end_tick = 0;
  std::int64_t begin_ns = 0;  // steady ns since the recorder's epoch
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> notes;

  [[nodiscard]] double duration_ms() const {
    return static_cast<double>(end_ns - begin_ns) / 1e6;
  }
};

// ---- virtual clock --------------------------------------------------------
// Process-wide logical clock. The vnet fabric ticks it on every message
// delivery; SpanScope ticks it on begin/end. Reads/ticks are always
// available, independent of any Recorder.
std::uint64_t vclock();
std::uint64_t vclock_tick();

// ---- recorder -------------------------------------------------------------

class Recorder {
 public:
  Recorder();
  ~Recorder();  // uninstalls itself if still installed

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Makes this recorder the process-wide sink. At most one recorder is
  // installed at a time; installing replaces the previous one.
  void install();
  void uninstall();

  std::uint64_t new_trace_id();
  std::uint64_t new_span_id();
  // Steady nanoseconds since this recorder's construction.
  [[nodiscard]] std::int64_t now_ns() const;

  void record(Span s);
  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::size_t size() const;

  // Blocks until no new span of `trace_id` has been recorded for `idle`, or
  // until `timeout` elapses; returns true on quiescence. Golden-trace tests
  // call this before snapshotting: a trace's teardown spans (daemon serve
  // spans, job wrappers, TASK_DONE handling) are recorded asynchronously
  // after the client observes job completion, and a snapshot taken
  // mid-drain would be nondeterministic. `trace_id` 0 waits for the whole
  // recorder — only meaningful when no periodic sources (heartbeats,
  // scheduler polls) are still running.
  bool await_quiet(
      std::uint64_t trace_id = 0,
      std::chrono::milliseconds idle = std::chrono::milliseconds(50),
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

 private:
  // Spans of `trace_id` recorded so far (all spans when 0).
  [[nodiscard]] std::size_t count_locked(std::uint64_t trace_id) const
      DAC_REQUIRES(mu_);

  std::int64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_span_{1};
  mutable Mutex mu_{"trace.recorder"};
  CondVar recorded_;  // signalled on every record()
  std::vector<Span> spans_ DAC_GUARDED_BY(mu_);
};

// The installed recorder, or nullptr when tracing is off.
Recorder* recorder();

// ---- thread-local context -------------------------------------------------

// The context new spans and outgoing requests inherit on this thread.
Context current();

// Names the component recording spans on this thread ("pbs_server",
// "maui", "job3.r0", ...). Defaults to "client".
void set_thread_actor(std::string actor);
[[nodiscard]] const std::string& thread_actor();

// Sets the thread's current context for a scope; restores on destruction.
// ScopedContext(Context{}) detaches the scope from any ambient trace —
// used around periodic work (heartbeats) that must not join a request's
// trace.
class ScopedContext {
 public:
  explicit ScopedContext(Context ctx);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context prev_;
};

// ---- spans ----------------------------------------------------------------

// A span that is not a scope: it never becomes the thread's current context
// or its innermost span, so it may stay open across handler turns and end on
// whichever turn settles it (the per-target client spans of
// svc::ServiceLoop::call_all). With a recorder installed it allocates ids,
// starting a new trace when the parent is untraced, and records itself when
// ended or destroyed. Without a recorder it is inert and context() is the
// parent, so propagation still works.
class DetachedSpan {
 public:
  DetachedSpan(std::string name, Context parent);
  ~DetachedSpan();

  DetachedSpan(const DetachedSpan&) = delete;
  DetachedSpan& operator=(const DetachedSpan&) = delete;

  void note(std::string key, std::string value);
  // {trace, own span id}, or the parent context when inert.
  [[nodiscard]] Context context() const { return ctx_; }
  [[nodiscard]] bool recording() const { return rec_ != nullptr; }
  void end();

 private:
  Recorder* rec_ = nullptr;  // null once ended, or when inert
  Span span_;
  Context ctx_;
};

// RAII span: a DetachedSpan that is also the thread's current context and
// innermost span for its scope.
class SpanScope {
 public:
  explicit SpanScope(std::string name);  // parent = current()
  SpanScope(std::string name, Context parent);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void note(std::string key, std::string value) {
    span_.note(std::move(key), std::move(value));
  }
  [[nodiscard]] Context context() const { return span_.context(); }
  // Records the span and hands the thread its previous context back.
  void end();

 private:
  DetachedSpan span_;
  Context prev_ctx_;
  SpanScope* prev_active_ = nullptr;
};

// Adds a note to the innermost active SpanScope on this thread (no-op when
// none): how handlers attach job ids, hostnames, grant sizes.
void note(std::string key, std::string value);

// Records an instantaneous span under the current context.
void event(std::string name,
           std::vector<std::pair<std::string, std::string>> notes = {});

}  // namespace dac::trace

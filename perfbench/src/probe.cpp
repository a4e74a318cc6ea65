#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "simtime/clock.hpp"

namespace perfbench {

namespace {

// Host time, read directly: the benchmark measures the simulator's own wall
// cost, which virtual time cannot show.
std::chrono::steady_clock::time_point wall_now() {
  return std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
}

double ms_between(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// A time in ms since the probe's epoch as whole nanoseconds, as spans
// keep it.
std::uint64_t to_ns(double ms) {
  return static_cast<std::uint64_t>(std::llround(ms * 1e6));
}

// Sets a span's end on both clocks and notes its virtual duration, which
// the Chrome export would otherwise not show.
void set_end(dac::trace::Span& s, Stamp end) {
  s.end_tick = to_ns(end.v);
  s.end_ns = static_cast<std::int64_t>(to_ns(end.w));
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.6f",
                static_cast<double>(s.end_tick - s.begin_tick) / 1e6);
  s.notes = {{"virtual_ms", ms}};
}

}  // namespace

Stamp Probe::now() const {
  // The first call pins both epochs.
  static const auto v0 = dac::simtime::now();
  static const auto w0 = wall_now();
  return Stamp{ms_between(dac::simtime::now() - v0),
               ms_between(wall_now() - w0)};
}

void Probe::add(const std::string& series, double value) {
  dac::ScopedLock lock(mu_);
  series_[series].add(value);
}

void Probe::count(const std::string& counter, std::uint64_t n) {
  dac::ScopedLock lock(mu_);
  counters_[counter] += n;
}

std::uint64_t Probe::counter(const std::string& name) const {
  dac::ScopedLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

dac::util::Samples Probe::series(const std::string& name) const {
  dac::ScopedLock lock(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? dac::util::Samples{} : it->second;
}

void Probe::job_due(JobId job, double due_v, double submitted_v) {
  dac::ScopedLock lock(mu_);
  auto& t = jobs_[job];
  t.due = due_v;
  t.submitted = submitted_v;
}

void Probe::job_program_start(JobId job) {
  const double v = now().v;
  dac::ScopedLock lock(mu_);
  jobs_[job].program_start = v;
}

void Probe::job_ready(JobId job) {
  const double v = now().v;
  dac::ScopedLock lock(mu_);
  jobs_[job].ready = v;
}

std::map<JobId, JobTimes> Probe::jobs() const {
  dac::ScopedLock lock(mu_);
  return jobs_;
}

void Probe::expect_decision(JobId job) {
  dac::ScopedLock lock(mu_);
  decisions_.emplace(job, 0);
}

void Probe::decision(JobId job, bool granted) {
  dac::ScopedLock lock(mu_);
  ++decisions_[job];
  ++counters_[granted ? "dynget.granted" : "dynget.rejected"];
}

std::size_t Probe::undecided() const {
  dac::ScopedLock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(decisions_.begin(), decisions_.end(),
                    [](const auto& kv) { return kv.second != 1; }));
}

void Probe::violation(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  dac::ScopedLock lock(mu_);
  violations_.push_back(what);
}

std::vector<std::string> Probe::violations() const {
  dac::ScopedLock lock(mu_);
  return violations_;
}

void Probe::set_tracing(bool on) { tracing_.store(on); }

bool Probe::tracing() const { return tracing_.load(); }

dac::trace::Span Probe::make_span(const std::string& name, JobId job,
                                  std::uint64_t parent, Stamp start,
                                  Stamp end) {
  dac::trace::Span s;
  s.trace = job;
  s.id = recorder_.new_span_id();
  s.parent = parent;
  s.name = name;
  s.actor = "job" + std::to_string(job);
  s.begin_tick = to_ns(start.v);
  s.begin_ns = static_cast<std::int64_t>(to_ns(start.w));
  set_end(s, end);
  return s;
}

void Probe::span(const std::string& name, JobId job, std::uint64_t parent,
                 Stamp start, Stamp end) {
  if (tracing()) recorder_.record(make_span(name, job, parent, start, end));
}

std::vector<dac::trace::Span> Probe::spans() const {
  return recorder_.snapshot();
}

void Probe::reset() {
  dac::ScopedLock lock(mu_);
  series_.clear();
  counters_.clear();
  jobs_.clear();
  decisions_.clear();
}

// ---- Timed ------------------------------------------------------------------

Timed::Timed(Probe& probe, std::string name, JobId job)
    : probe_(probe), start_(probe.now()) {
  span_.name = std::move(name);
  if (!probe.tracing()) return;
  span_ = probe.make_span(span_.name, job, dac::trace::current().span, start_,
                          start_);
  context_.emplace(dac::trace::Context{job, span_.id});
}

Timed::~Timed() = default;

void Timed::finish() {
  if (done_) return;
  done_ = true;
  context_.reset();
  const Stamp end = probe_.now();
  probe_.add(span_.name, end.v - start_.v);
  probe_.add(span_.name + ".wall", end.w - start_.w);
  if (span_.id != 0) {
    set_end(span_, end);
    probe_.recorder_.record(std::move(span_));
  }
}

// ---- Ledger -----------------------------------------------------------------

void Ledger::set_capacity(const std::string& host, int slots) {
  dac::ScopedLock lock(mu_);
  capacity_[host] = slots;
}

void Ledger::grant(Probe& probe, const std::vector<std::string>& hosts) {
  std::vector<std::string> over;
  {
    dac::ScopedLock lock(mu_);
    for (const auto& h : hosts) {
      const auto cap = capacity_.find(h);
      if (++held_[h] > (cap == capacity_.end() ? 1 : cap->second)) {
        over.push_back(h);
      }
    }
  }
  for (const auto& h : over) {
    probe.violation("host " + h +
                    " granted beyond its slots to live dynamic sets");
  }
}

void Ledger::release(const std::vector<std::string>& hosts) {
  dac::ScopedLock lock(mu_);
  for (const auto& h : hosts) {
    if (--held_[h] == 0) held_.erase(h);
  }
}

std::size_t Ledger::live() const {
  dac::ScopedLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [host, held] : held_) n += static_cast<std::size_t>(held);
  return n;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- traced-run analysis -------------------------------------------------

namespace {

// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = lo;
  double cur_hi = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  return total + (cur_hi - cur_lo);
}

}  // namespace

std::vector<SelfTime> self_times(const std::vector<dac::trace::Span>& spans) {
  using Span = dac::trace::Span;
  const auto virtual_ms = [](const Span& s) {
    return std::pair{static_cast<double>(s.begin_tick) / 1e6,
                     static_cast<double>(s.end_tick) / 1e6};
  };
  const auto wall_ms = [](const Span& s) {
    return std::pair{static_cast<double>(s.begin_ns) / 1e6,
                     static_cast<double>(s.end_ns) / 1e6};
  };
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> by_name;
  for (const auto& s : spans) {
    std::vector<std::pair<double, double>> kids_v;
    std::vector<std::pair<double, double>> kids_w;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        kids_v.push_back(virtual_ms(*c));
        kids_w.push_back(wall_ms(*c));
      }
    }
    const auto [v0, v1] = virtual_ms(s);
    const auto [w0, w1] = wall_ms(s);
    auto& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_v += v1 - v0;
    row.self_v += (v1 - v0) - covered(kids_v, v0, v1);
    row.self_w += (w1 - w0) - covered(kids_w, w0, w1);
  }
  std::vector<SelfTime> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  return rows;
}

}  // namespace perfbench

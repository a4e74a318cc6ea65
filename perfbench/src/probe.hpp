// Measurement plumbing of the benchmark. Every layer is timed from the
// outside, around a call into its public API from the benchmark's own files:
// nothing here reaches into src/. A Probe holds
//
//   * named sample series (virtual and wall durations of layer calls),
//   * named counters (attempts, failures, bytes moved),
//   * per-job timestamps (due, submit return, program start, ready),
//   * a trace::Recorder holding the spans of the traced run.
//
// The recorder is never installed, so the system's own spans stay off and
// only the benchmark's spans are recorded. They stay in memory and are
// written out once, at exit, with trace::write_chrome_trace. A benchmark
// span carries its job id as its trace id, its wall bounds in begin_ns/
// end_ns and its virtual (simtime) bounds, in ns, in begin_tick/end_tick.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "torque/job.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace perfbench {

using dac::torque::JobId;

// One instant on both clocks, in ms since the probe's epoch.
struct Stamp {
  double v = 0.0;  // virtual (simtime)
  double w = 0.0;  // wall (host steady clock)
};

// Timestamps of one job in virtual ms; NaN until recorded.
struct JobTimes {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  double due = kUnset;            // when the driver meant to submit it
  double submitted = kUnset;      // when the submit call returned
  double program_start = kUnset;  // rank 0 entered the job program
  double ready = kUnset;          // rank 0's AC_Init returned (or start)
};

class Probe {
 public:
  [[nodiscard]] Stamp now() const;

  void add(const std::string& series, double value);
  void count(const std::string& counter, std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  // A copy of one series (empty when nothing was recorded).
  [[nodiscard]] dac::util::Samples series(const std::string& name) const;

  // ---- per-job timestamps ---------------------------------------------
  void job_due(JobId job, double due_v, double submitted_v);
  void job_program_start(JobId job);
  void job_ready(JobId job);
  [[nodiscard]] std::map<JobId, JobTimes> jobs() const;

  // ---- output checks ----------------------------------------------------
  // Dynamic requests: the driver registers each job that must issue exactly
  // one; the job reports every decision it receives.
  void expect_decision(JobId job);
  void decision(JobId job, bool granted);
  // Jobs whose expected decision count is off (undecided or decided twice).
  [[nodiscard]] std::size_t undecided() const;
  // A violation that cannot be counted against attempts fails the run.
  void violation(const std::string& what);
  [[nodiscard]] std::vector<std::string> violations() const;

  // ---- tracing ------------------------------------------------------------
  void set_tracing(bool on);
  [[nodiscard]] bool tracing() const;
  // A span of `job` under `parent` (0: a root span) with a fresh id. Spans
  // split out of a layer's own timing report (AC_Init's waiting/connect,
  // AC_Get's batch/MPI) have no wall bounds of their own: give them a zero
  // wall length.
  [[nodiscard]] dac::trace::Span make_span(const std::string& name, JobId job,
                                           std::uint64_t parent, Stamp start,
                                           Stamp end);
  // Records a finished span when tracing is on.
  void span(const std::string& name, JobId job, std::uint64_t parent,
            Stamp start, Stamp end);
  [[nodiscard]] std::vector<dac::trace::Span> spans() const;

  // Drops samples, counters, job times and decisions: a new phase starts.
  // Spans and violations are kept.
  void reset();

 private:
  friend class Timed;

  mutable dac::Mutex mu_{"perfbench.probe"};
  std::map<std::string, dac::util::Samples> series_ DAC_GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> counters_ DAC_GUARDED_BY(mu_);
  std::map<JobId, JobTimes> jobs_ DAC_GUARDED_BY(mu_);
  std::map<JobId, int> decisions_ DAC_GUARDED_BY(mu_);
  std::vector<std::string> violations_ DAC_GUARDED_BY(mu_);
  dac::trace::Recorder recorder_;
  std::atomic<bool> tracing_{false};
};

// Times one call into a layer. finish() records the virtual duration in ms
// under series `name` and the wall duration under `name + ".wall"`, plus a
// span when tracing is on. Until finish(), the span is the thread's
// trace::current() context, so spans opened on the thread meanwhile nest
// under it. A call that throws records nothing.
class Timed {
 public:
  Timed(Probe& probe, std::string name, JobId job);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  void finish();
  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  [[nodiscard]] Stamp start() const { return start_; }

 private:
  Probe& probe_;
  dac::trace::Span span_;  // id 0 when tracing is off
  Stamp start_;
  std::optional<dac::trace::ScopedContext> context_;
  bool done_ = false;
};

// Dynamic-grant ledger kept from the grant host lists: no host may be held
// by more live dynamic sets than it has slots.
class Ledger {
 public:
  void set_capacity(const std::string& host, int slots);
  void grant(Probe& probe, const std::vector<std::string>& hosts);
  void release(const std::vector<std::string>& hosts);
  [[nodiscard]] std::size_t live() const;

 private:
  mutable dac::Mutex mu_{"perfbench.ledger"};
  std::map<std::string, int> capacity_ DAC_GUARDED_BY(mu_);
  std::map<std::string, int> held_ DAC_GUARDED_BY(mu_);
};

// Peak resident memory of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// ---- traced-run analysis ---------------------------------------------------

// Self time of every span name: its duration minus the part of that
// interval its child spans cover, summed over all spans of that name.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_v = 0.0;  // summed durations, virtual ms
  double self_v = 0.0;   // summed self times, virtual ms
  double self_w = 0.0;   // summed self times, wall ms
};
[[nodiscard]] std::vector<SelfTime> self_times(
    const std::vector<dac::trace::Span>& spans);

}  // namespace perfbench

// dacsched-analyzer: a domain-aware static analysis pass for the dacsched
// tree. It tokenizes (comment/string-stripped, brace-tracked) every C++ file
// under src/, tests/, examples/, bench/, and tools/ and enforces invariants
// the svc protocol stack depends on but no compiler checks:
//
//   blocking-under-lock   no Caller::call / rpc::call, BlockingQueue pop,
//                         endpoint recv, or sleep while a dac::Mutex
//                         guard is live in the same scope; a
//                         condvar wait is flagged when a *second* guard is
//                         held across it.
//   blocking-reachable-under-lock
//                         whole-program companion to blocking-under-lock:
//                         a call site reached while a dac guard is live must
//                         not *transitively* reach a blocking operation
//                         through the call graph.
//   lock-order-static     the tree-wide acquired-while-holding graph (guard
//                         nesting plus calls into lock-acquiring functions,
//                         mutexes identified by their declared dac name
//                         string) must be acyclic; complements the runtime
//                         lock-order detector, which only sees orders that
//                         actually execute. --lock-dot dumps the graph.
//   clock-visibility      native synchronization the discrete-event clock
//                         cannot see (std::latch/barrier/semaphore, raw
//                         std::thread joins without an ExternalWaitScope)
//                         must not be reachable from actor context
//                         (simtime::ActorThread / vnet process spawns);
//                         DACSCHED_CLOCK=virtual would deadlock on it.
//   handler-coverage      every wire MsgType has exactly one registered
//                         ServiceLoop handler across src/, and no handler
//                         registers a type outside the enum.
//   span-name             every MsgType renders to a unique trace span name
//                         in svc::msg_type_name (never the hex fallback).
//   nodiscard             declarations returning a must-check error type
//                         (driver::Status, DynGetReply, GetResult, JobId,
//                         ReplyCode) carry [[nodiscard]].
//   unchecked-status      statement-expression calls that silently drop a
//                         must-check result ((void) is an explicit opt-out).
//   deadline-literal      Caller::call / rpc::call / ServiceLoop::call_all /
//                         CallTable::call sites outside tests/ name their
//                         deadline (constant or config field) — no implicit
//                         default, no bare chrono literal.
//   check-side-effect     no ++/--/assignment/mutating calls inside
//                         DAC_CHECK / DAC_DCHECK conditions (DCHECK bodies
//                         vanish in release builds).
//   raw-sync, detach, sleep-poll, nondet-seed, include
//                         the hygiene rules folded in from the retired
//                         tools/lint.py.
//   raw-clock             ambient time is banned outside src/simtime/:
//                         steady_clock::now() and this_thread sleeps must go
//                         through dac::simtime so DiscreteEvent mode can
//                         virtualize them (tests' sleep discipline stays
//                         sleep-poll's job).
//   stale-nolint          a NOLINT-DACSCHED comment that suppressed nothing
//                         (or names an unknown rule) is itself an error, so
//                         the suppression set only shrinks.
//
// Suppression is line-anchored: append a NOLINT-DACSCHED comment naming the
// rule id in parentheses (comma-separated for several rules) to the
// offending line — exact syntax in docs/ANALYSIS.md. Every suppression is
// counted per rule; `--baseline` compares the counts against a checked-in
// file and fails on any drift, which makes allowlist growth reviewable.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace dac::analyzer {

enum class Rule {
  kBlockingUnderLock,
  kBlockingReachableUnderLock,
  kLockOrderStatic,
  kClockVisibility,
  kHandlerCoverage,
  kSpanName,
  kNodiscard,
  kUncheckedStatus,
  kDeadlineLiteral,
  kCheckSideEffect,
  kRawSync,
  kRawClock,
  kDetach,
  kSleepPoll,
  kNondetSeed,
  kInclude,
  kStaleNolint,
};

// Stable kebab-case id, used in diagnostics, NOLINT comments, and baselines.
[[nodiscard]] const char* rule_id(Rule rule);
// Parses a rule id; returns false for unknown ids.
[[nodiscard]] bool rule_from_id(const std::string& id, Rule* out);
// All rules, in catalog order.
[[nodiscard]] const std::vector<Rule>& all_rules();

struct Diagnostic {
  std::string file;  // as given in SourceFile::path
  int line = 0;      // 1-based
  Rule rule{};
  std::string message;
};

struct SourceFile {
  std::string path;     // repo-relative (used for reporting and scoping)
  bool is_test = false; // test-scoped rules (sleep-poll) apply; deadline
                        // discipline is relaxed (tests probe timeout edges)
  std::string text;
};

struct Config {
  // Suffix-matched against SourceFile::path. When no scanned file matches,
  // the corresponding cross-file rule is skipped (single-file CLI mode).
  std::string wire_enum_file = "src/torque/protocol.hpp";
  std::string span_table_file = "src/svc/wire.cpp";
};

// One edge of the static acquired-while-holding graph: mutex `to` (by its
// declared dac name string) is acquired — directly or through a call chain —
// while a guard over mutex `from` is live. file/line anchor the acquisition
// or call site that established the edge.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  bool in_cycle = false;
};

struct Report {
  std::vector<Diagnostic> diagnostics;     // unsuppressed, sorted
  std::map<std::string, int> suppressions; // rule id -> NOLINTs that fired
  std::vector<LockEdge> lock_edges;        // static lock-order graph, sorted
  int files_scanned = 0;
  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
  [[nodiscard]] int total_suppressions() const;
};

// Renders the lock-order graph as Graphviz DOT (cycle edges highlighted);
// the CI analyzer job archives this as a build artifact (--lock-dot).
[[nodiscard]] std::string format_lock_dot(const std::vector<LockEdge>& edges);

// Renders a report as a stable JSON document (schema pinned by
// tests/analyzer): {"files_scanned", "clean", "diagnostics": [{"file",
// "line", "rule", "message"}], "suppressions": {rule-id: count}}.
[[nodiscard]] std::string format_json(const Report& report);

// Runs every rule over `files`. Cross-file facts (the MsgType enum, handler
// registrations, span names, must-check declarations) are collected from the
// same file set, so fixtures can exercise the cross-file rules in isolation.
[[nodiscard]] Report analyze(const std::vector<SourceFile>& files,
                             const Config& config = {});

// ---- baseline (suppression-count drift detection) -------------------------

[[nodiscard]] std::map<std::string, int> parse_baseline(
    const std::string& text);
[[nodiscard]] std::string format_baseline(
    const std::map<std::string, int>& counts);
// Empty result means the counts match the baseline exactly. Any growth is a
// new suppression (fix the code instead); any shrink means the baseline is
// stale (regenerate with --update-baseline so the win is recorded).
[[nodiscard]] std::vector<std::string> compare_baseline(
    const std::map<std::string, int>& baseline,
    const std::map<std::string, int>& current);

// ---- CLI ------------------------------------------------------------------

// Loads the standard scan set (src/ tests/ examples/ bench/ tools/, skipping
// any path with a /fixtures/ component) rooted at `root`.
[[nodiscard]] std::vector<SourceFile> load_tree(const std::string& root);

// `dacsched-analyzer [--root DIR] [--baseline FILE] [--update-baseline]
//  [--format=text|json] [--lock-dot FILE] [--list-rules] [file...]`.
// Returns the process exit code: 0 clean, 1 diagnostics or baseline drift,
// 2 usage/IO error.
[[nodiscard]] int run_cli(int argc, const char* const* argv);

}  // namespace dac::analyzer

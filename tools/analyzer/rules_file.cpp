// Per-file rule passes: the hygiene rules folded in from tools/lint.py
// (include, raw-sync, detach, sleep-poll, nondet-seed), the scope-tracked
// blocking-under-lock analysis, deadline discipline at Caller::call sites,
// DAC_CHECK side-effect hygiene, and unchecked must-check call statements.
#include <algorithm>
#include <array>
#include <cctype>
#include <string>

#include "analyzer/internal.hpp"

namespace dac::analyzer::internal {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const CleanFile& file) {
  return ends_with(file.src->path, ".hpp") || ends_with(file.src->path, ".h");
}

// src/simtime/ is the one place allowed to touch raw time and raw sync: the
// clock sits below util in the dependency order (dac::Mutex/CondVar are built
// on top of it) and is precisely where real time gets virtualized.
bool is_simtime(const CleanFile& file) {
  return file.src->path.find("src/simtime/") != std::string::npos;
}

// ---- include hygiene ------------------------------------------------------

void check_includes(CleanFile& file, Sink& sink) {
  if (is_header(file)) {
    bool found_first = false;
    for (std::size_t li = 0; li < file.clean.size() && !found_first; ++li) {
      const std::string t = trim(file.clean[li]);
      if (t.empty()) continue;
      found_first = true;
      if (t != "#pragma once") {
        sink.report(file, static_cast<int>(li) + 1, Rule::kInclude,
                    "header must start with #pragma once");
      }
    }
  }
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string t = trim(file.raw[li]);
    if (t.rfind("#include", 0) == 0 &&
        t.find("\"../") != std::string::npos) {
      sink.report(file, static_cast<int>(li) + 1, Rule::kInclude,
                  "no \"../\" includes; use the src/-rooted path");
    }
  }
}

// ---- simple per-line rules ------------------------------------------------

void check_simple(CleanFile& file, Sink& sink) {
  static const std::array<const char*, 9> kRawSync = {
      "std::mutex",        "std::condition_variable",
      "std::condition_variable_any", "std::lock_guard",
      "std::unique_lock",  "std::scoped_lock",
      "std::shared_mutex", "std::shared_timed_mutex",
      "std::shared_lock"};
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string& line = file.clean[li];
    const int lineno = static_cast<int>(li) + 1;
    if (line.find("std::") != std::string::npos) {
      if (!is_simtime(file)) {
        for (const char* banned : kRawSync) {
          if (find_word(line, banned) != std::string::npos) {
            sink.report(file, lineno, Rule::kRawSync,
                        std::string(banned) +
                            " is banned; use the dac:: wrappers from "
                            "util/sync.hpp");
            break;
          }
        }
      }
      if (find_word(line, "std::random_device") != std::string::npos) {
        sink.report(file, lineno, Rule::kNondetSeed,
                    "nondeterministic RNG seeding is banned; pass an "
                    "explicit seed (fault traces must replay identically)");
      }
    }
    for (const char* rng : {"mt19937", "mt19937_64"}) {
      const auto pos = find_word(line, rng);
      if (pos == std::string::npos) continue;
      auto j = pos + std::string(rng).size();
      while (j < line.size() && line[j] == ' ') ++j;
      if (j < line.size() && line[j] == '(') {
        ++j;
        while (j < line.size() && line[j] == ' ') ++j;
        if (j < line.size() && line[j] == ')') {
          sink.report(file, lineno, Rule::kNondetSeed,
                      "default-constructed " + std::string(rng) +
                          " is time/implementation seeded; pass an explicit "
                          "seed");
        }
      }
    }
    const auto detach = line.find(".detach");
    if (detach != std::string::npos) {
      auto j = detach + 7;
      while (j < line.size() && line[j] == ' ') ++j;
      if (j < line.size() && line[j] == '(') {
        sink.report(file, lineno, Rule::kDetach,
                    "detached threads are banned; join them");
      }
    }
    if (file.src->is_test &&
        find_word(line, "sleep_for") != std::string::npos) {
      sink.report(file, lineno, Rule::kSleepPoll,
                  "sleep_for polling in tests is banned; synchronize on an "
                  "event (see docs/ANALYSIS.md)");
    }
    // raw-clock: ambient time outside src/simtime/ breaks DiscreteEvent
    // mode — the virtual clock cannot see it. steady_clock::now() applies
    // everywhere; the this_thread sleeps only outside tests, where
    // sleep-poll already governs (one diagnostic per offense, not two).
    if (!is_simtime(file)) {
      if (line.find("steady_clock::now") != std::string::npos) {
        sink.report(file, lineno, Rule::kRawClock,
                    "steady_clock::now() is banned outside src/simtime/; "
                    "read simtime::now() so DiscreteEvent mode works");
      } else if (!file.src->is_test &&
                 (line.find("this_thread::sleep_for") != std::string::npos ||
                  line.find("this_thread::sleep_until") !=
                      std::string::npos)) {
        sink.report(file, lineno, Rule::kRawClock,
                    "this_thread sleeps are banned outside src/simtime/; "
                    "use simtime::sleep_for so DiscreteEvent mode works");
      }
    }
  }
}

// ---- blocking-under-lock --------------------------------------------------

// A live RAII guard over a dac::Mutex.
struct Guard {
  std::string name;
  int depth = 0;     // brace depth at the declaration
  int line = 0;      // declaration line (for the diagnostic message)
  bool active = true;  // false between name.unlock() and name.lock()
};

enum class EventKind {
  kGuardDecl,
  kUnlock,
  kRelock,
  kBlockingCall,  // Caller::call / rpc::call
  kBlockingPop,   // BlockingQueue::pop / pop_for
  kBlockingRecv,  // Endpoint::recv / recv_for
  kSleep,         // sleep_for / sleep_until
  kCondWait,      // condvar wait; flagged only with a second guard held
};

struct Event {
  std::size_t col = 0;
  EventKind kind{};
  std::string name;  // guard name for decl/unlock/relock; op for blocking
};

// Matches `Type name(` / `Type name{` guard declarations at `pos`.
bool match_guard_decl(const std::string& line, std::size_t pos,
                      std::string* name) {
  static const std::array<const char*, 2> kGuards = {"ScopedLock",
                                                     "UniqueLock"};
  for (const char* g : kGuards) {
    if (!word_at(line, pos, g)) continue;
    auto j = pos + std::string(g).size();
    while (j < line.size() && line[j] == ' ') ++j;
    std::size_t start = j;
    while (j < line.size() && is_ident_char(line[j])) ++j;
    if (j == start) return false;  // reference parameter or constructor
    std::string ident = line.substr(start, j - start);
    while (j < line.size() && line[j] == ' ') ++j;
    if (j < line.size() && (line[j] == '(' || line[j] == '{')) {
      *name = std::move(ident);
      return true;
    }
    return false;
  }
  return false;
}

// `.name` / `->name` member-call matcher: returns true when `line[pos]`
// begins `.name(` or `->name(`, allowing an underscore-extended suffix from
// `suffixes` (e.g. pop -> pop_for) but rejecting other identifier
// continuations (pop_front).
bool match_member_call(const std::string& line, std::size_t pos,
                       const std::string& base,
                       const std::vector<std::string>& suffixes) {
  std::size_t j = pos;
  if (line[j] == '.') {
    j += 1;
  } else if (line.compare(j, 2, "->") == 0) {
    j += 2;
  } else {
    return false;
  }
  if (j == pos) return false;
  if (line.compare(j, base.size(), base) != 0) return false;
  j += base.size();
  if (j < line.size() && is_ident_char(line[j])) {
    bool ok = false;
    for (const auto& s : suffixes) {
      if (line.compare(j, s.size(), s) == 0 &&
          (j + s.size() >= line.size() ||
           !is_ident_char(line[j + s.size()]))) {
        j += s.size();
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  while (j < line.size() && line[j] == ' ') ++j;
  return j < line.size() && line[j] == '(';
}

// Extracts the identifier immediately before the '.' at `dot`.
std::string ident_before(const std::string& line, std::size_t dot) {
  std::size_t start = dot;
  while (start > 0 && is_ident_char(line[start - 1])) --start;
  return line.substr(start, dot - start);
}

void collect_events(const std::string& line, std::vector<Event>* events) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string name;
    if (match_guard_decl(line, i, &name)) {
      events->push_back({i, EventKind::kGuardDecl, std::move(name)});
      continue;
    }
    if (line[i] == '.' || line[i] == '-') {
      if (match_member_call(line, i, "unlock", {})) {
        events->push_back({i, EventKind::kUnlock, ident_before(line, i)});
      } else if (match_member_call(line, i, "lock", {})) {
        events->push_back({i, EventKind::kRelock, ident_before(line, i)});
      } else if (match_member_call(line, i, "call", {})) {
        events->push_back({i, EventKind::kBlockingCall, "Caller::call"});
      } else if (match_member_call(line, i, "pop", {"_for"})) {
        events->push_back({i, EventKind::kBlockingPop, "BlockingQueue pop"});
      } else if (match_member_call(line, i, "recv", {"_for"})) {
        events->push_back({i, EventKind::kBlockingRecv, "endpoint recv"});
      } else if (match_member_call(line, i, "wait", {"_for", "_until"})) {
        events->push_back({i, EventKind::kCondWait, "condition wait"});
      }
      continue;
    }
    if (word_at(line, i, "rpc") && line.compare(i, 10, "rpc::call(") == 0) {
      events->push_back({i, EventKind::kBlockingCall, "rpc::call"});
      continue;
    }
    if (word_at(line, i, "sleep_for") || word_at(line, i, "sleep_until")) {
      events->push_back({i, EventKind::kSleep, "sleep"});
    }
  }
}

void check_blocking_under_lock(CleanFile& file, Sink& sink) {
  int depth = 0;
  std::vector<Guard> guards;
  std::vector<Event> events;
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string& line = file.clean[li];
    const int lineno = static_cast<int>(li) + 1;
    events.clear();
    collect_events(line, &events);
    std::size_t next_event = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      while (next_event < events.size() && events[next_event].col == i) {
        const Event& ev = events[next_event++];
        switch (ev.kind) {
          case EventKind::kGuardDecl:
            guards.push_back({ev.name, depth, lineno, true});
            break;
          case EventKind::kUnlock:
          case EventKind::kRelock:
            for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
              if (it->name == ev.name) {
                it->active = ev.kind == EventKind::kRelock;
                break;
              }
            }
            break;
          case EventKind::kBlockingCall:
          case EventKind::kBlockingPop:
          case EventKind::kBlockingRecv:
          case EventKind::kSleep:
          case EventKind::kCondWait: {
            int live = 0;
            const Guard* innermost = nullptr;
            for (const auto& g : guards) {
              if (g.active) {
                ++live;
                innermost = &g;
              }
            }
            // One guard across a condvar wait is the idiom (the wait
            // releases it); a second held guard deadlocks under contention.
            const int limit = ev.kind == EventKind::kCondWait ? 2 : 1;
            if (live >= limit) {
              sink.report(
                  file, lineno, Rule::kBlockingUnderLock,
                  ev.name + " while lock guard '" + innermost->name +
                      "' (line " + std::to_string(innermost->line) +
                      ") is live; release the lock before blocking");
            }
            break;
          }
        }
      }
      if (i == line.size()) break;
      if (line[i] == '{') {
        ++depth;
      } else if (line[i] == '}') {
        --depth;
        while (!guards.empty() && guards.back().depth > depth) {
          guards.pop_back();
        }
      }
    }
  }
}

// ---- deadline discipline at call sites ------------------------------------

bool contains_chrono_literal(const std::string& text) {
  static const std::array<const char*, 5> kCtors = {
      "nanoseconds", "microseconds", "milliseconds", "seconds", "minutes"};
  for (const char* ctor : kCtors) {
    for (auto pos = find_word(text, ctor); pos != std::string::npos;
         pos = find_word(text, ctor, pos + 1)) {
      auto j = pos + std::string(ctor).size();
      while (j < text.size() && text[j] == ' ') ++j;
      if (j < text.size() && text[j] == '(') {
        ++j;
        while (j < text.size() && text[j] == ' ') ++j;
        if (j < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[j])) != 0) {
          return true;
        }
      }
    }
  }
  // Chrono UDLs: 500ms, 2s, 10us, ... (digits directly followed by a unit).
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) continue;
    auto j = i;
    while (j < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[j])) != 0)) {
      ++j;
    }
    if (i > 0 && is_ident_char(text[i - 1])) {
      i = j;
      continue;
    }
    for (const char* unit : {"ms", "us", "ns", "min", "s", "h"}) {
      const std::string u = unit;
      if (text.compare(j, u.size(), u) == 0 &&
          (j + u.size() >= text.size() ||
           !is_ident_char(text[j + u.size()]))) {
        return true;
      }
    }
    i = j;
  }
  return false;
}

// Splits `args` at top-level commas (parens/braces/brackets nested).
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : args) {
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trim(cur).empty()) out.push_back(trim(cur));
  return out;
}

void check_deadlines(CleanFile& file, Sink& sink) {
  if (file.src->is_test) return;  // tests probe deadline edges deliberately
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string& line = file.clean[li];
    // Named-constant definitions are where the literal belongs.
    if (find_word(line, "constexpr") != std::string::npos) continue;
    for (std::size_t i = 0; i < line.size(); ++i) {
      // Caller::call(type, body[, opts]); rpc::call(ctx, to, type, body
      // [, timeout]); ServiceLoop::call_all(targets, type, body, deadline,
      // done) and CallTable::call(to, type, body, deadline, done), whose
      // continuations after the deadline are not checked.
      const char* what = nullptr;
      std::size_t required = 0;
      std::size_t checked = std::string::npos;  // args after the deadline
      if (match_member_call(line, i, "call", {})) {
        what = "Caller::call";
        required = 3;
      } else if (word_at(line, i, "rpc") &&
                 line.compare(i, 10, "rpc::call(") == 0) {
        what = "rpc::call";
        required = 5;
      } else if (word_at(line, i, "call_all") &&
                 line.compare(i, 9, "call_all(") == 0) {
        what = "ServiceLoop::call_all";
        required = 4;
        checked = required;
      } else {
        continue;
      }
      const auto open = line.find('(', i);
      if (open == std::string::npos) break;
      const auto args =
          split_args(balanced_args(file, li, open));
      if (what == std::string("Caller::call") && args.size() > 3) {
        what = "CallTable::call";  // a Caller::call takes at most 3
        required = 4;
        checked = required;
      }
      const int lineno = static_cast<int>(li) + 1;
      if (args.size() < required) {
        sink.report(file, lineno, Rule::kDeadlineLiteral,
                    std::string(what) +
                        " relies on the implicit default deadline; pass a "
                        "named policy constant (src/svc/deadlines.hpp)");
      } else {
        for (std::size_t a = required - 1; a < std::min(args.size(), checked);
             ++a) {
          if (contains_chrono_literal(args[a])) {
            sink.report(file, lineno, Rule::kDeadlineLiteral,
                        "bare literal deadline at a call site; name the "
                        "policy constant (src/svc/deadlines.hpp)");
            break;
          }
        }
      }
      i = open;
    }
  }
}

// ---- DAC_CHECK hygiene ----------------------------------------------------

bool condition_has_side_effect(const std::string& cond, std::string* what) {
  if (cond.find("++") != std::string::npos) {
    *what = "'++'";
    return true;
  }
  if (cond.find("--") != std::string::npos) {
    *what = "'--'";
    return true;
  }
  for (std::size_t i = 0; i < cond.size(); ++i) {
    if (cond[i] != '=') continue;
    const char prev = i > 0 ? cond[i - 1] : ' ';
    const char next = i + 1 < cond.size() ? cond[i + 1] : ' ';
    if (next == '=') {  // ==
      ++i;
      continue;
    }
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
    if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^') {
      *what = "compound assignment";
      return true;
    }
    *what = "assignment";
    return true;
  }
  static const std::array<const char*, 15> kMutators = {
      "push_back", "push_front", "pop_back", "pop_front", "pop",
      "push",      "erase",      "insert",   "emplace",   "emplace_back",
      "clear",     "reset",      "release",  "take",      "swap"};
  for (const char* m : kMutators) {
    const std::string pat = std::string(".") + m;
    for (auto pos = cond.find(pat); pos != std::string::npos;
         pos = cond.find(pat, pos + 1)) {
      auto j = pos + pat.size();
      if (j < cond.size() && is_ident_char(cond[j])) continue;
      while (j < cond.size() && cond[j] == ' ') ++j;
      if (j < cond.size() && cond[j] == '(') {
        *what = std::string("mutating call '.") + m + "()'";
        return true;
      }
    }
  }
  return false;
}

void check_check_macros(CleanFile& file, Sink& sink) {
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string& line = file.clean[li];
    if (trim(line).rfind('#', 0) == 0) continue;  // the macro definitions
    for (const char* macro : {"DAC_CHECK", "DAC_DCHECK"}) {
      const auto pos = find_word(line, macro);
      if (pos == std::string::npos) continue;
      const auto open = line.find('(', pos);
      if (open == std::string::npos) continue;
      const auto args = split_args(balanced_args(file, li, open));
      if (args.empty()) continue;
      std::string what;
      if (condition_has_side_effect(args[0], &what)) {
        sink.report(file, static_cast<int>(li) + 1, Rule::kCheckSideEffect,
                    std::string(macro) + " condition contains " + what +
                        "; DCHECK conditions are not evaluated in release "
                        "builds, so checks must be side-effect-free");
      }
    }
  }
}

// ---- unchecked must-check calls -------------------------------------------

// True when `t` (a trimmed statement start) is `recv.recv->ns::name(` for
// the given function name: an expression statement whose result vanishes.
bool is_bare_call(const std::string& t, const std::string& name) {
  const auto pos = find_word(t, name);
  if (pos == std::string::npos) return false;
  for (std::size_t i = 0; i < pos; ++i) {
    const char c = t[i];
    if (!is_ident_char(c) && c != '.' && c != ':' && c != '-' && c != '>') {
      return false;
    }
  }
  auto j = pos + name.size();
  while (j < t.size() && t[j] == ' ') ++j;
  return j < t.size() && t[j] == '(';
}

void check_unchecked_calls(CleanFile& file, const MustCheck& mustcheck,
                           Sink& sink) {
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string t = trim(file.clean[li]);
    if (t.empty()) continue;
    // Only statement starts: the previous meaningful line must close a
    // statement or block (multi-line expressions stay un-flagged).
    bool boundary = true;
    for (std::size_t p = li; p-- > 0;) {
      const std::string prev = trim(file.clean[p]);
      if (prev.empty()) continue;
      const char last = prev.back();
      boundary = last == ';' || last == '{' || last == '}' || last == ':';
      break;
    }
    if (!boundary) continue;
    for (const auto& name : mustcheck.names) {
      if (is_bare_call(t, name)) {
        sink.report(file, static_cast<int>(li) + 1, Rule::kUncheckedStatus,
                    "result of must-check call '" + name +
                        "' is silently dropped; check it or cast to (void) "
                        "deliberately");
        break;
      }
    }
  }
}

}  // namespace

void check_file(CleanFile& file, const MustCheck& mustcheck, Sink& sink) {
  check_includes(file, sink);
  check_simple(file, sink);
  check_blocking_under_lock(file, sink);
  check_deadlines(file, sink);
  check_check_macros(file, sink);
  check_unchecked_calls(file, mustcheck, sink);
}

}  // namespace dac::analyzer::internal

// Cross-file rule passes and the analyze() entry point. These rules need
// facts gathered from the whole scanned set: the wire MsgType enum, every
// ServiceLoop handler registration, the trace span-name table, and the
// must-check declaration surface that feeds the unchecked-status rule.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "analyzer/internal.hpp"
#include "analyzer/wholeprogram.hpp"

namespace dac::analyzer {

namespace {

struct RuleEntry {
  Rule rule;
  const char* id;
};

constexpr std::array<RuleEntry, 17> kRules = {{
    {Rule::kBlockingUnderLock, "blocking-under-lock"},
    {Rule::kBlockingReachableUnderLock, "blocking-reachable-under-lock"},
    {Rule::kLockOrderStatic, "lock-order-static"},
    {Rule::kClockVisibility, "clock-visibility"},
    {Rule::kHandlerCoverage, "handler-coverage"},
    {Rule::kSpanName, "span-name"},
    {Rule::kNodiscard, "nodiscard"},
    {Rule::kUncheckedStatus, "unchecked-status"},
    {Rule::kDeadlineLiteral, "deadline-literal"},
    {Rule::kCheckSideEffect, "check-side-effect"},
    {Rule::kRawSync, "raw-sync"},
    {Rule::kRawClock, "raw-clock"},
    {Rule::kDetach, "detach"},
    {Rule::kSleepPoll, "sleep-poll"},
    {Rule::kNondetSeed, "nondet-seed"},
    {Rule::kInclude, "include"},
    {Rule::kStaleNolint, "stale-nolint"},
}};

}  // namespace

const char* rule_id(Rule rule) {
  for (const auto& e : kRules) {
    if (e.rule == rule) return e.id;
  }
  return "unknown";
}

bool rule_from_id(const std::string& id, Rule* out) {
  for (const auto& e : kRules) {
    if (id == e.id) {
      *out = e.rule;
      return true;
    }
  }
  return false;
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> v;
    for (const auto& e : kRules) v.push_back(e.rule);
    return v;
  }();
  return rules;
}

int Report::total_suppressions() const {
  int total = 0;
  for (const auto& [id, count] : suppressions) total += count;
  return total;
}

}  // namespace dac::analyzer

namespace dac::analyzer::internal {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool in_src(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

CleanFile* find_file(std::vector<CleanFile>& files,
                     const std::string& suffix) {
  for (auto& f : files) {
    if (ends_with(f.src->path, suffix)) return &f;
  }
  return nullptr;
}

// ---- wire enum -------------------------------------------------------------

struct WireEnum {
  CleanFile* file = nullptr;
  std::map<std::string, int> enumerators;  // name -> 1-based line
  std::vector<std::string> order;
};

WireEnum parse_wire_enum(std::vector<CleanFile>& files,
                         const Config& config) {
  WireEnum out;
  out.file = find_file(files, config.wire_enum_file);
  if (out.file == nullptr) return out;
  bool inside = false;
  for (std::size_t li = 0; li < out.file->clean.size(); ++li) {
    const std::string t = trim(out.file->clean[li]);
    if (!inside) {
      if (t.rfind("enum class MsgType", 0) == 0) inside = true;
      continue;
    }
    if (t.rfind("};", 0) == 0) break;
    // `kName = 0x...,` / `kName,` — an identifier followed by ',' or '='.
    std::size_t j = 0;
    while (j < t.size() && is_ident_char(t[j])) ++j;
    if (j == 0 || t[0] != 'k') continue;
    const std::string name = t.substr(0, j);
    while (j < t.size() && t[j] == ' ') ++j;
    if (j == t.size() || t[j] == ',' || t[j] == '=') {
      if (out.enumerators.emplace(name, static_cast<int>(li) + 1).second) {
        out.order.push_back(name);
      }
    }
  }
  return out;
}

// ---- handler registrations -------------------------------------------------

struct Registration {
  CleanFile* file = nullptr;
  int line = 0;
  std::string enumerator;  // the kFoo after MsgType::
};

// Pulls `MsgType::kFoo` occurrences out of `text` starting at `from`.
void collect_msgtypes(const std::string& text, std::size_t from,
                      std::vector<std::string>* out) {
  static const std::string kPrefix = "MsgType::";
  for (auto pos = text.find(kPrefix, from); pos != std::string::npos;
       pos = text.find(kPrefix, pos + 1)) {
    auto j = pos + kPrefix.size();
    std::size_t start = j;
    while (j < text.size() && is_ident_char(text[j])) ++j;
    if (j > start) out->push_back(text.substr(start, j - start));
  }
}

// Extracts the helper name from a lambda-intro line like
// `const auto mut = [&](MsgType type, ...`. Empty when not that shape.
std::string lambda_helper_name(const std::string& line) {
  const auto intro = line.find("](MsgType");
  if (intro == std::string::npos) return {};
  const auto eq = line.rfind('=', intro);
  if (eq == std::string::npos) return {};
  std::size_t end = eq;
  while (end > 0 && line[end - 1] == ' ') --end;
  std::size_t start = end;
  while (start > 0 && is_ident_char(line[start - 1])) --start;
  return line.substr(start, end - start);
}

// All ServiceLoop registrations in one src/ .cpp file. Recognizes three
// shapes: direct `.on(MsgType::kX, ...)`, registration helpers
// (`const auto mut = [&](MsgType type, ...) { loop.on(type, ...); }` then
// `mut(MsgType::kX, ...)`), and brace-list loops
// (`for (const auto type : {MsgType::kA, kB...})` with `.on(type` inside).
void collect_registrations(CleanFile& file, std::vector<Registration>* out) {
  std::set<std::string> helpers;
  for (std::size_t li = 0; li < file.clean.size(); ++li) {
    const std::string& line = file.clean[li];
    for (auto pos = line.find(".on("); pos != std::string::npos;
         pos = line.find(".on(", pos + 1)) {
      const auto args = balanced_args(file, li, pos + 3);
      const auto comma = args.find(',');
      const std::string first =
          trim(comma == std::string::npos ? args : args.substr(0, comma));
      if (first.rfind("MsgType::", 0) == 0) {
        std::vector<std::string> types;
        collect_msgtypes(first, 0, &types);
        for (auto& t : types) {
          out->push_back({&file, static_cast<int>(li) + 1, std::move(t)});
        }
        continue;
      }
      // First argument is a plain identifier: either a registration
      // helper's lambda parameter or a brace-list loop variable. Look back
      // a few lines for which.
      bool is_plain_ident = !first.empty();
      for (char c : first) {
        if (!is_ident_char(c)) is_plain_ident = false;
      }
      if (!is_plain_ident) continue;  // e.g. arm.cpp registers msg(kArmX)
      for (std::size_t back = 1; back <= 8 && back <= li; ++back) {
        const std::string& prev = file.clean[li - back];
        const std::string helper = lambda_helper_name(prev);
        if (!helper.empty()) {
          helpers.insert(helper);
          break;
        }
        const auto fpos = prev.find("for (");
        if (fpos != std::string::npos &&
            find_word(prev, first, fpos) != std::string::npos) {
          // Gather the brace list between the for-line and the .on line.
          std::vector<std::string> types;
          for (std::size_t gl = li - back; gl <= li; ++gl) {
            collect_msgtypes(file.clean[gl], 0, &types);
          }
          for (auto& t : types) {
            out->push_back({&file, static_cast<int>(li - back) + 1,
                            std::move(t)});
          }
          break;
        }
      }
    }
  }
  for (const auto& helper : helpers) {
    for (std::size_t li = 0; li < file.clean.size(); ++li) {
      const std::string& line = file.clean[li];
      for (auto pos = find_word(line, helper); pos != std::string::npos;
           pos = find_word(line, helper, pos + 1)) {
        const auto open = pos + helper.size();
        if (pos > 0 && (line[pos - 1] == '.' || line[pos - 1] == ':')) {
          continue;  // member/qualified use, not the local helper
        }
        if (open >= line.size() || line[open] != '(') continue;
        if (line.compare(open, 10, "(MsgType::") != 0) continue;
        std::vector<std::string> types;
        collect_msgtypes(line, open, &types);
        if (!types.empty()) {
          out->push_back(
              {&file, static_cast<int>(li) + 1, std::move(types[0])});
        }
      }
    }
  }
}

void check_handlers(std::vector<CleanFile>& files, const WireEnum& wire,
                    Sink& sink) {
  if (wire.file == nullptr) return;
  std::vector<Registration> regs;
  for (auto& f : files) {
    if (!f.src->is_test && in_src(f.src->path) &&
        ends_with(f.src->path, ".cpp")) {
      collect_registrations(f, &regs);
    }
  }
  std::map<std::string, const Registration*> seen;
  for (const auto& reg : regs) {
    if (wire.enumerators.find(reg.enumerator) == wire.enumerators.end()) {
      sink.report(*reg.file, reg.line, Rule::kHandlerCoverage,
                  "handler registered for MsgType::" + reg.enumerator +
                      ", which is not a wire MsgType enumerator");
      continue;
    }
    const auto [it, inserted] = seen.emplace(reg.enumerator, &reg);
    if (!inserted) {
      sink.report(*reg.file, reg.line, Rule::kHandlerCoverage,
                  "duplicate handler for MsgType::" + reg.enumerator +
                      " (first registered at " + it->second->file->src->path +
                      ":" + std::to_string(it->second->line) + ")");
    }
  }
  for (const auto& name : wire.order) {
    if (seen.count(name) != 0) continue;
    // kReply is the reply envelope (consumed by Caller, never dispatched);
    // kEv* are synthetic metrics-only codes that are never sent.
    if (name == "kReply" || name.rfind("kEv", 0) == 0) continue;
    sink.report(*wire.file, wire.enumerators.at(name), Rule::kHandlerCoverage,
                "MsgType::" + name +
                    " has no registered ServiceLoop handler in src/");
  }
}

// ---- span names ------------------------------------------------------------

void check_spans(std::vector<CleanFile>& files, const WireEnum& wire,
                 const Config& config, Sink& sink) {
  if (wire.file == nullptr) return;
  CleanFile* span_file = find_file(files, config.span_table_file);
  if (span_file == nullptr) return;
  int fn_line = 1;
  for (std::size_t li = 0; li < span_file->clean.size(); ++li) {
    if (span_file->clean[li].find("msg_type_name") != std::string::npos) {
      fn_line = static_cast<int>(li) + 1;
      break;
    }
  }
  std::map<std::string, int> named;      // enumerator -> case line
  std::map<std::string, int> span_names; // span string -> case line
  static const std::string kCase = "case as_u32(MsgType::";
  for (std::size_t li = 0; li < span_file->clean.size(); ++li) {
    const std::string& line = span_file->clean[li];
    const auto pos = line.find(kCase);
    if (pos == std::string::npos) continue;
    const int lineno = static_cast<int>(li) + 1;
    auto j = pos + kCase.size();
    std::size_t start = j;
    while (j < line.size() && is_ident_char(line[j])) ++j;
    const std::string enumerator = line.substr(start, j - start);
    if (wire.enumerators.find(enumerator) == wire.enumerators.end()) {
      sink.report(*span_file, lineno, Rule::kSpanName,
                  "span table names MsgType::" + enumerator +
                      ", which is not a wire MsgType enumerator");
      continue;
    }
    if (!named.emplace(enumerator, lineno).second) {
      continue;  // duplicate case would not compile; leave it to the build
    }
    // The span string lives in the raw line (strings are blanked in clean).
    const std::string& raw = span_file->raw[li];
    const auto q1 = raw.find('"');
    const auto q2 = q1 == std::string::npos ? std::string::npos
                                            : raw.find('"', q1 + 1);
    if (q2 == std::string::npos) {
      sink.report(*span_file, lineno, Rule::kSpanName,
                  "span-table case for MsgType::" + enumerator +
                      " does not return a string literal on the same line");
      continue;
    }
    const std::string span = raw.substr(q1 + 1, q2 - q1 - 1);
    const auto [it, inserted] = span_names.emplace(span, lineno);
    if (!inserted) {
      sink.report(*span_file, lineno, Rule::kSpanName,
                  "span name \"" + span + "\" already used at " +
                      span_file->src->path + ":" +
                      std::to_string(it->second) +
                      "; span names must be unique");
    }
  }
  for (const auto& name : wire.order) {
    if (named.count(name) == 0) {
      sink.report(*span_file, fn_line, Rule::kSpanName,
                  "MsgType::" + name +
                      " has no span name in msg_type_name (traces would "
                      "show the hex fallback)");
    }
  }
}

// ---- [[nodiscard]] declarations and the must-check name set ----------------

constexpr std::array<const char*, 5> kMustCheckTypes = {
    "Status", "DynGetReply", "GetResult", "JobId", "ReplyCode"};

constexpr std::array<const char*, 8> kDeclSpecifiers = {
    "inline", "static", "virtual", "constexpr", "explicit",
    "friend", "extern", "const"};

bool is_keyword_not_type(const std::string& word) {
  static const std::array<const char*, 8> kKeywords = {
      "return", "co_return", "throw", "new", "delete",
      "case",   "goto",      "else"};
  for (const char* k : kKeywords) {
    if (word == k) return true;
  }
  return false;
}

// Decides whether the word at [pos, pos+len) in `line` is the return type of
// a function declaration: everything before it must be namespace qualifiers
// on the type itself, declaration specifiers, attributes, or whitespace, and
// after it an identifier followed by '(' must open a parameter list.
// On success stores the declared name.
bool match_decl(const std::string& line, std::size_t pos, std::size_t len,
                std::string* name) {
  // Walk the prefix backwards over `ident::` qualifiers.
  std::size_t p = pos;
  while (p >= 2 && line[p - 1] == ':' && line[p - 2] == ':') {
    p -= 2;
    while (p > 0 && is_ident_char(line[p - 1])) --p;
  }
  // The rest of the prefix: whitespace, specifiers, attributes.
  std::size_t i = 0;
  while (i < p) {
    const char c = line[i];
    if (c == ' ') {
      ++i;
    } else if (c == '[' && i + 1 < p && line[i + 1] == '[') {
      const auto close = line.find("]]", i);
      if (close == std::string::npos || close >= p) return false;
      i = close + 2;
    } else if (is_ident_char(c)) {
      std::size_t j = i;
      while (j < p && is_ident_char(line[j])) ++j;
      const std::string word = line.substr(i, j - i);
      bool ok = false;
      for (const char* spec : kDeclSpecifiers) {
        if (word == spec) ok = true;
      }
      if (!ok) return false;
      i = j;
    } else {
      return false;
    }
  }
  // After the type: an identifier then '('.
  auto j = pos + len;
  while (j < line.size() && line[j] == ' ') ++j;
  std::size_t start = j;
  while (j < line.size() && is_ident_char(line[j])) ++j;
  if (j == start) return false;
  *name = line.substr(start, j - start);
  while (j < line.size() && line[j] == ' ') ++j;
  return j < line.size() && line[j] == '(';
}

MustCheck check_nodiscard(std::vector<CleanFile>& files, Sink& sink) {
  std::set<std::string> candidates;  // names with a must-check declaration
  std::set<std::string> ambiguous;   // names also declared with other types
  for (auto& file : files) {
    if (file.src->is_test || !in_src(file.src->path) ||
        !(ends_with(file.src->path, ".hpp") ||
          ends_with(file.src->path, ".h"))) {
      continue;
    }
    for (std::size_t li = 0; li < file.clean.size(); ++li) {
      const std::string& line = file.clean[li];
      for (const char* type : kMustCheckTypes) {
        const std::string type_word = type;
        for (auto pos = find_word(line, type_word); pos != std::string::npos;
             pos = find_word(line, type_word, pos + 1)) {
          std::string name;
          if (!match_decl(line, pos, type_word.size(), &name)) continue;
          candidates.insert(name);
          if (line.find("[[nodiscard]]") == std::string::npos) {
            sink.report(file, static_cast<int>(li) + 1, Rule::kNodiscard,
                        "declaration of '" + name + "' returns " + type_word +
                            " but is not [[nodiscard]]");
          }
        }
      }
    }
  }
  // Second pass: a candidate name also declared with a non-must-check return
  // type anywhere in src/ headers is ambiguous for name-based call-site
  // matching (e.g. driver::mem_free returns Status, frontend::mem_free is
  // void) and is dropped from the unchecked-status set.
  for (auto& file : files) {
    if (file.src->is_test || !in_src(file.src->path) ||
        !(ends_with(file.src->path, ".hpp") ||
          ends_with(file.src->path, ".h"))) {
      continue;
    }
    for (const auto& line : file.clean) {
      for (const auto& cand : candidates) {
        for (auto pos = find_word(line, cand); pos != std::string::npos;
             pos = find_word(line, cand, pos + 1)) {
          // Type word immediately before the candidate name.
          std::size_t end = pos;
          while (end > 0 && line[end - 1] == ' ') --end;
          std::size_t start = end;
          while (start > 0 && is_ident_char(line[start - 1])) --start;
          if (start == end) continue;
          const std::string type_word = line.substr(start, end - start);
          if (is_keyword_not_type(type_word)) continue;
          bool mustcheck = false;
          for (const char* t : kMustCheckTypes) {
            if (type_word == t) mustcheck = true;
          }
          if (mustcheck) continue;
          std::string name;
          if (match_decl(line, start, end - start, &name) && name == cand) {
            ambiguous.insert(cand);
          }
        }
      }
    }
  }
  MustCheck out;
  for (const auto& cand : candidates) {
    if (ambiguous.count(cand) == 0) out.names.push_back(cand);
  }
  return out;
}

}  // namespace

MustCheck check_tree(std::vector<CleanFile>& files, const Config& config,
                     Sink& sink) {
  const WireEnum wire = parse_wire_enum(files, config);
  check_handlers(files, wire, sink);
  check_spans(files, wire, config, sink);
  return check_nodiscard(files, sink);
}

}  // namespace dac::analyzer::internal

namespace dac::analyzer {

Report analyze(const std::vector<SourceFile>& files, const Config& config) {
  std::vector<internal::CleanFile> cleaned;
  cleaned.reserve(files.size());
  for (const auto& f : files) {
    cleaned.push_back(internal::clean_source(f));
  }
  internal::Sink sink(cleaned);
  const internal::MustCheck mustcheck =
      internal::check_tree(cleaned, config, sink);
  for (auto& f : cleaned) {
    internal::check_file(f, mustcheck, sink);
  }
  internal::Index index = internal::build_index(cleaned);
  internal::propagate(index);
  std::vector<LockEdge> lock_edges;
  internal::check_wholeprogram(index, sink, &lock_edges);
  Report report = sink.finish();
  report.lock_edges = std::move(lock_edges);
  return report;
}

}  // namespace dac::analyzer

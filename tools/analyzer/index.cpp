// Tree-wide symbol index: a lightweight structural parse of every scanned
// file that recognizes function/method definitions (with body extents and
// owning class), class/namespace nesting, and dac mutex declarations with
// their identity strings — then a per-body fact pass that records call
// sites, direct blocking operations, guard acquisitions (with resolved
// mutex identities), native clock-invisible waits, and actor spawns. The
// call-graph fixpoint and the whole-program rules consume these facts
// (callgraph.cpp).
#include <array>
#include <cctype>

#include "analyzer/wholeprogram.hpp"

namespace dac::analyzer::internal {

namespace {

// Keywords that look like `name(` but never are calls or definitions.
bool is_control_keyword(const std::string& w) {
  static const std::array<const char*, 16> kw = {
      "if",     "for",      "while",   "switch",        "catch",
      "sizeof", "alignof",  "alignas", "decltype",      "static_assert",
      "assert", "noexcept", "typeid",  "co_await",      "requires",
      "defined"};
  for (const char* k : kw) {
    if (w == k) return true;
  }
  return false;
}

// Keywords that may legitimately precede a call expression (`return f()`),
// as opposed to a type name preceding a declaration.
bool is_expr_keyword(const std::string& w) {
  static const std::array<const char*, 8> kw = {
      "return", "co_return", "co_yield", "throw",
      "new",    "delete",    "case",     "else"};
  for (const char* k : kw) {
    if (w == k) return true;
  }
  return false;
}

bool all_caps_macro(const std::string& w) {
  bool has_alpha = false;
  for (char c : w) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isalpha(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

// Call-shaped names the scope-local blocking rule already owns (direct
// blockers and guard toggles); the index does not treat them as resolvable
// call sites, so the interprocedural rule never double-reports them.
bool is_owned_operation(const std::string& w) {
  static const std::array<const char*, 14> ops = {
      "call", "pop",   "pop_for",  "recv",       "recv_for",
      "wait", "wait_for", "wait_until", "sleep_for", "sleep_until",
      "lock", "unlock", "notify_one", "notify_all"};
  for (const char* o : ops) {
    if (w == o) return true;
  }
  return false;
}

std::string trailing_ident(const std::string& text) {
  std::size_t end = text.size();
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  std::size_t start = end;
  while (start > 0 && is_ident_char(text[start - 1])) --start;
  return text.substr(start, end - start);
}

// ---- structural pass -------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kOther };
  Kind kind;
  std::string name;      // class / namespace name
  int open_depth = 0;    // brace depth before this scope's '{'
  std::size_t fn = 0;    // index into Index::functions when kind==kFunction
};

// Candidate function-definition state machine: armed at `name(`, confirmed
// when the matching ')' is followed by '{' (possibly through const/noexcept
// trailers and a constructor initializer list), cancelled on ';' and friends.
struct Pending {
  bool active = false;
  std::string name;
  std::string cls;  // from an X::name qualifier, else empty
  int line = 0;
  int state = 0;       // 1 in params, 2 after params, 3 ctor-init trailer
  int paren_depth = 0;
  int brace_depth = 0;  // member brace-inits inside a ctor-init list
  char prev_nonspace = 0;
};

// Examines `line` up to column `open` (the '(') and decides whether this is
// a plausible definition head. Fills name/cls on success.
bool match_def_head(const std::string& line, std::size_t open,
                    const std::string& enclosing_class, bool at_class_scope,
                    Pending* out) {
  std::size_t end = open;
  while (end > 0 && line[end - 1] == ' ') --end;
  std::size_t start = end;
  while (start > 0 && is_ident_char(line[start - 1])) --start;
  if (start == end) return false;
  std::string name = line.substr(start, end - start);
  if (is_control_keyword(name) || is_expr_keyword(name)) return false;
  if (name == "operator") return false;
  bool dtor = false;
  if (start > 0 && line[start - 1] == '~') {
    dtor = true;
    --start;
  }
  // Walk back over `ident::` qualifiers; remember the innermost one.
  std::string cls;
  std::size_t p = start;
  while (p >= 2 && line[p - 1] == ':' && line[p - 2] == ':') {
    std::size_t qe = p - 2;
    std::size_t qs = qe;
    while (qs > 0 && is_ident_char(line[qs - 1])) --qs;
    if (qs == qe) break;  // `::name` global qualifier
    if (cls.empty()) cls = line.substr(qs, qe - qs);
    p = qs;
  }
  const bool qualified = p != start;
  // The character before the (possibly qualified) name.
  std::size_t b = p;
  while (b > 0 && line[b - 1] == ' ') --b;
  if (b == 0) {
    // Name at line start: an out-of-line qualified definition, a
    // constructor at class scope, or a test macro body. Anything else at
    // line start (statement-level calls only occur inside functions, which
    // the structural pass never scans) is rejected.
    if (!qualified && !(at_class_scope && (name == enclosing_class || dtor)) &&
        name.rfind("TEST", 0) != 0 && name != "TYPED_TEST") {
      return false;
    }
  } else {
    const char c = line[b - 1];
    if (is_ident_char(c)) {
      std::size_t ws = b - 1;
      while (ws > 0 && is_ident_char(line[ws - 1])) --ws;
      const std::string word = line.substr(ws, b - ws);
      if (is_expr_keyword(word) || is_control_keyword(word)) return false;
      if (word == "operator") return false;
    } else if (c != '>' && c != '*' && c != '&') {
      return false;  // '=', '(', ',', '.', '!', ... — expression context
    }
  }
  if (all_caps_macro(name) && name.rfind("TEST", 0) != 0 &&
      name != "TYPED_TEST") {
    return false;  // DAC_CHECK(...)-style macro invocation at file scope
  }
  out->active = true;
  out->name = dtor ? "~" + name : name;
  out->cls = qualified ? cls : enclosing_class;
  out->state = 1;
  out->paren_depth = 0;
  out->brace_depth = 0;
  out->prev_nonspace = 0;
  return true;
}

// Mutex identity declarations: `Mutex name_{"label"};` (optionally
// mutable, dac::/util:: qualified) at class or namespace scope. The label
// lives in the raw line — strings are blanked in clean.
void scan_mutex_decl(const std::string& clean, const std::string& raw,
                     const std::string& cls, Index* index) {
  const std::string type = "Mutex";
  for (auto pos = find_word(clean, type); pos != std::string::npos;
       pos = find_word(clean, type, pos + 1)) {
    auto j = pos + type.size();
    while (j < clean.size() && clean[j] == ' ') ++j;
    std::size_t start = j;
    while (j < clean.size() && is_ident_char(clean[j])) ++j;
    if (j == start) continue;
    const std::string field = clean.substr(start, j - start);
    while (j < clean.size() && clean[j] == ' ') ++j;
    if (j >= clean.size() || (clean[j] != '{' && clean[j] != ';')) continue;
    std::string id;
    if (clean[j] == '{') {
      const auto q1 = raw.find('"', j);
      const auto q2 = q1 == std::string::npos ? std::string::npos
                                              : raw.find('"', q1 + 1);
      if (q2 != std::string::npos) id = raw.substr(q1 + 1, q2 - q1 - 1);
    }
    if (id.empty()) id = cls.empty() ? field : cls + "::" + field;
    index->mutex_ids.emplace(std::make_pair(cls, field), id);
    index->mutex_ids_by_field[field].insert(id);
    return;
  }
}

// ---- body fact pass --------------------------------------------------------

// Live guard over a dac mutex inside one body.
struct LiveGuard {
  std::string var;       // guard variable name
  std::string mutex_id;  // resolved identity, empty when unknown
  int depth = 0;
  int line = 0;
  bool active = true;
};

bool guard_decl_at(const std::string& line, std::size_t pos, std::string* var,
                   std::size_t* open_col, char* open_ch) {
  static const std::array<const char*, 2> kGuards = {"ScopedLock",
                                                     "UniqueLock"};
  for (const char* g : kGuards) {
    if (!word_at(line, pos, g)) continue;
    auto j = pos + std::string(g).size();
    while (j < line.size() && line[j] == ' ') ++j;
    std::size_t start = j;
    while (j < line.size() && is_ident_char(line[j])) ++j;
    if (j == start) return false;
    std::string ident = line.substr(start, j - start);
    while (j < line.size() && line[j] == ' ') ++j;
    if (j < line.size() && (line[j] == '(' || line[j] == '{')) {
      *var = std::move(ident);
      *open_col = j;
      *open_ch = line[j];
      return true;
    }
    return false;
  }
  return false;
}

bool member_call_at(const std::string& line, std::size_t pos,
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

std::string ident_before(const std::string& line, std::size_t dot) {
  std::size_t start = dot;
  while (start > 0 && is_ident_char(line[start - 1])) --start;
  return line.substr(start, dot - start);
}

// Resolves a guard constructor argument (`mu_`, `node.mu_`, `this->mu_`,
// `other->state_mu_`) to a mutex identity via the owning class, falling back
// to a tree-wide unique field name. Empty when unresolvable.
std::string resolve_mutex_id(const std::string& arg, const std::string& cls,
                             const Index& index) {
  const std::string field = trailing_ident(arg);
  if (field.empty()) return {};
  const auto it = index.mutex_ids.find(std::make_pair(cls, field));
  if (it != index.mutex_ids.end()) return it->second;
  const auto global = index.mutex_ids.find(std::make_pair(std::string(), field));
  if (global != index.mutex_ids.end()) return global->second;
  const auto by_field = index.mutex_ids_by_field.find(field);
  if (by_field != index.mutex_ids_by_field.end() &&
      by_field->second.size() == 1) {
    return *by_field->second.begin();
  }
  return {};
}

// Identifiers declared as raw std::thread (or a vector of them) anywhere in
// the file — receivers whose `.join()` is a native, clock-invisible join.
std::set<std::string> thread_idents(const CleanFile& file) {
  std::set<std::string> out;
  for (const auto& line : file.clean) {
    for (const char* decl :
         {"std::thread", "std::jthread", "std::vector<std::thread>"}) {
      for (auto pos = line.find(decl); pos != std::string::npos;
           pos = line.find(decl, pos + std::string(decl).size())) {
        auto j = pos + std::string(decl).size();
        if (j < line.size() && (is_ident_char(line[j]) || line[j] == ':')) {
          continue;  // longer token (std::thread::id, ...)
        }
        while (j < line.size() && line[j] == ' ') ++j;
        std::size_t start = j;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        if (j > start) out.insert(line.substr(start, j - start));
      }
    }
  }
  return out;
}

struct BodyEvent {
  enum Kind {
    kGuardDecl,
    kUnlock,
    kRelock,
    kDirectBlock,
    kCondWait,
    kCall,
    kNativeWait,
  };
  std::size_t col = 0;
  Kind kind{};
  std::string a;  // guard var / blocker label / callee / wait label
  std::string b;  // guard ctor args (kGuardDecl)
  bool is_join = false;
};

void collect_body_events(const CleanFile& file, std::size_t li,
                         const std::set<std::string>& threads,
                         std::vector<BodyEvent>* events) {
  const std::string& line = file.clean[li];
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string var;
    std::size_t open_col = 0;
    char open_ch = 0;
    if (guard_decl_at(line, i, &var, &open_col, &open_ch)) {
      std::string args;
      if (open_ch == '(') {
        args = balanced_args(file, li, open_col);
      } else {
        const auto close = line.find('}', open_col);
        if (close != std::string::npos) {
          args = line.substr(open_col + 1, close - open_col - 1);
        }
      }
      events->push_back(
          {i, BodyEvent::kGuardDecl, std::move(var), std::move(args), false});
      continue;
    }
    if (line[i] == '.' || line[i] == '-') {
      if (member_call_at(line, i, "unlock", {})) {
        events->push_back(
            {i, BodyEvent::kUnlock, ident_before(line, i), {}, false});
        continue;
      }
      if (member_call_at(line, i, "lock", {})) {
        events->push_back(
            {i, BodyEvent::kRelock, ident_before(line, i), {}, false});
        continue;
      }
      if (member_call_at(line, i, "call", {})) {
        events->push_back({i, BodyEvent::kDirectBlock, "Caller::call", {},
                           false});
        continue;
      }
      if (member_call_at(line, i, "pop", {"_for"})) {
        events->push_back({i, BodyEvent::kDirectBlock, "BlockingQueue pop",
                           {}, false});
        continue;
      }
      if (member_call_at(line, i, "recv", {"_for"})) {
        events->push_back(
            {i, BodyEvent::kDirectBlock, "endpoint recv", {}, false});
        continue;
      }
      if (member_call_at(line, i, "wait", {"_for", "_until"})) {
        events->push_back(
            {i, BodyEvent::kCondWait, "condition wait", {}, false});
        continue;
      }
      if (member_call_at(line, i, "join", {})) {
        const std::string recv = ident_before(line, i);
        if (threads.count(recv) != 0) {
          events->push_back({i, BodyEvent::kNativeWait,
                             "native join of std::thread '" + recv + "'",
                             {}, true});
        }
        continue;
      }
      continue;
    }
    if (word_at(line, i, "rpc") && line.compare(i, 10, "rpc::call(") == 0) {
      events->push_back({i, BodyEvent::kDirectBlock, "rpc::call", {}, false});
      continue;
    }
    if (word_at(line, i, "sleep_for") || word_at(line, i, "sleep_until")) {
      events->push_back({i, BodyEvent::kDirectBlock, "sleep", {}, false});
      continue;
    }
    for (const char* prim : {"std::latch", "std::barrier",
                             "std::counting_semaphore",
                             "std::binary_semaphore"}) {
      if (line.compare(i, std::string(prim).size(), prim) == 0 &&
          word_at(line, i, prim)) {
        events->push_back({i, BodyEvent::kNativeWait, prim, {}, false});
      }
    }
    // Generic call site: `name(` at an identifier boundary in call context.
    if (is_ident_char(line[i]) && (i == 0 || !is_ident_char(line[i - 1]))) {
      std::size_t j = i;
      while (j < line.size() && is_ident_char(line[j])) ++j;
      const std::string name = line.substr(i, j - i);
      std::size_t k = j;
      while (k < line.size() && line[k] == ' ') ++k;
      if (k >= line.size() || line[k] != '(') {
        i = j - 1;
        continue;
      }
      if (is_control_keyword(name) || is_expr_keyword(name) ||
          is_owned_operation(name) || all_caps_macro(name)) {
        i = j - 1;
        continue;
      }
      bool is_call = false;
      if (i == 0) {
        is_call = true;  // statement-level call at column 0
      } else {
        const char prev = line[i - 1];
        if (prev == '.' || prev == '>' || prev == ':') {
          is_call = true;  // member / qualified call
        } else {
          std::size_t b = i;
          while (b > 0 && line[b - 1] == ' ') --b;
          if (b == 0) {
            is_call = true;
          } else if (is_ident_char(line[b - 1])) {
            std::size_t ws = b - 1;
            while (ws > 0 && is_ident_char(line[ws - 1])) --ws;
            is_call = is_expr_keyword(line.substr(ws, b - ws));
          } else {
            is_call = line[b - 1] != '*' && line[b - 1] != '&';
          }
        }
      }
      if (is_call) {
        events->push_back({i, BodyEvent::kCall, name, {}, false});
      }
      i = j - 1;
      continue;
    }
  }
}

void scan_body(Function& fn, const Index& index,
               const std::set<std::string>& threads) {
  const CleanFile& file = *fn.body_file;
  int depth = 0;
  bool entered = false;  // true once the body '{' has been consumed
  std::vector<LiveGuard> guards;
  std::vector<BodyEvent> events;
  for (std::size_t li = static_cast<std::size_t>(fn.body_begin_line - 1);
       li < file.clean.size() &&
       li <= static_cast<std::size_t>(fn.body_end_line - 1);
       ++li) {
    const std::string& line = file.clean[li];
    const int lineno = static_cast<int>(li) + 1;
    const std::size_t from =
        li == static_cast<std::size_t>(fn.body_begin_line - 1)
            ? static_cast<std::size_t>(fn.body_begin_col)
            : 0;
    events.clear();
    collect_body_events(file, li, threads, &events);
    std::size_t next_event = 0;
    while (next_event < events.size() && events[next_event].col < from) {
      ++next_event;  // signature text before the body opens
    }
    for (std::size_t i = from; i <= line.size(); ++i) {
      while (next_event < events.size() && events[next_event].col == i) {
        const BodyEvent& ev = events[next_event++];
        int live = 0;
        const LiveGuard* innermost = nullptr;
        std::vector<std::string> held_ids;
        for (const auto& g : guards) {
          if (!g.active) continue;
          ++live;
          innermost = &g;
          if (!g.mutex_id.empty()) held_ids.push_back(g.mutex_id);
        }
        switch (ev.kind) {
          case BodyEvent::kGuardDecl: {
            const std::string id = resolve_mutex_id(ev.b, fn.cls, index);
            if (!id.empty()) {
              fn.acquires.push_back(id);
              for (const auto& held : held_ids) {
                if (held != id) {
                  fn.intra_edges.push_back({lineno, held, id});
                }
              }
            }
            guards.push_back({ev.a, id, depth, lineno, true});
            break;
          }
          case BodyEvent::kUnlock:
          case BodyEvent::kRelock:
            for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
              if (it->var == ev.a) {
                it->active = ev.kind == BodyEvent::kRelock;
                break;
              }
            }
            break;
          case BodyEvent::kDirectBlock:
            fn.direct_blocks.push_back({lineno, ev.a, false});
            break;
          case BodyEvent::kCondWait:
            fn.direct_blocks.push_back({lineno, ev.a, true});
            break;
          case BodyEvent::kCall: {
            CallSite call;
            call.line = lineno;
            call.callee = ev.a;
            call.held = held_ids;
            call.held_count = live;
            if (innermost != nullptr) {
              call.held_guard = innermost->var;
              call.held_guard_line = innermost->line;
            }
            fn.calls.push_back(std::move(call));
            break;
          }
          case BodyEvent::kNativeWait:
            fn.native_waits.push_back({lineno, ev.a, ev.is_join});
            break;
        }
      }
      if (i == line.size()) break;
      if (line[i] == '{') {
        ++depth;
        entered = true;
      } else if (line[i] == '}') {
        --depth;
        while (!guards.empty() && guards.back().depth >= depth + 1 &&
               guards.back().depth > depth) {
          guards.pop_back();
        }
        if (entered && depth == 0) return;  // body closed
      }
    }
    if (find_word(line, "ExternalWaitScope") != std::string::npos) {
      fn.has_external_wait_scope = true;
    }
    if (find_word(line, "ActorThread") != std::string::npos ||
        find_word(line, "AdoptScope") != std::string::npos ||
        find_word(line, "actor_started") != std::string::npos) {
      fn.is_actor_root = true;
    }
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      if ((line[i] == '.' || line[i] == '-') &&
          member_call_at(line, i, "spawn", {})) {
        fn.is_actor_root = true;
      }
    }
  }
}

}  // namespace

Index build_index(std::vector<CleanFile>& files) {
  Index index;
  // Pass 1: structure — classes, function definitions with body extents,
  // and mutex identity declarations.
  for (auto& file : files) {
    std::vector<Scope> scopes;
    int depth = 0;
    std::string head;
    Pending pend;
    bool mutex_scanned_line = false;
    auto in_function = [&] {
      for (const auto& s : scopes) {
        if (s.kind == Scope::kFunction) return true;
      }
      return false;
    };
    auto enclosing_class = [&]() -> std::string {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->kind == Scope::kClass) return it->name;
      }
      return {};
    };
    for (std::size_t li = 0; li < file.clean.size(); ++li) {
      const std::string& line = file.clean[li];
      if (trim(line).rfind('#', 0) == 0) continue;  // preprocessor
      mutex_scanned_line = false;
      for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (pend.active) {
          if (c == ' ') continue;
          switch (pend.state) {
            case 1:
              if (c == '(') ++pend.paren_depth;
              if (c == ')' && --pend.paren_depth == 0) pend.state = 2;
              break;
            case 2:
              if (c == '{') {
                // Confirmed definition: open the function scope.
                Function fn;
                fn.name = pend.name;
                fn.cls = pend.cls;
                fn.qualified =
                    pend.cls.empty() ? pend.name : pend.cls + "::" + pend.name;
                fn.file = &file;
                fn.body_file = &file;
                fn.line = pend.line;
                fn.body_begin_line = static_cast<int>(li) + 1;
                fn.body_begin_col = static_cast<int>(i);
                index.functions.push_back(std::move(fn));
                scopes.push_back({Scope::kFunction, pend.name, depth,
                                  index.functions.size() - 1});
                ++depth;
                pend.active = false;
              } else if (c == ';' || c == '=' || c == ',' || c == ')') {
                pend.active = false;
              } else if (c == ':' &&
                         !(i + 1 < line.size() && line[i + 1] == ':') &&
                         pend.prev_nonspace != ':') {
                pend.state = 3;
              } else if (c == '(') {
                pend.paren_depth = 1;
                pend.state = 1;  // noexcept(...) and friends
              }
              break;
            case 3:
              if (c == '(') ++pend.paren_depth;
              if (c == ')') --pend.paren_depth;
              if (c == '{' && pend.paren_depth == 0) {
                if (is_ident_char(pend.prev_nonspace) ||
                    pend.brace_depth > 0) {
                  ++pend.brace_depth;  // member brace-init `v_{1, 2}`
                } else {
                  Function fn;
                  fn.name = pend.name;
                  fn.cls = pend.cls;
                  fn.qualified = pend.cls.empty() ? pend.name
                                                 : pend.cls + "::" + pend.name;
                  fn.file = &file;
                  fn.body_file = &file;
                  fn.line = pend.line;
                  fn.body_begin_line = static_cast<int>(li) + 1;
                  fn.body_begin_col = static_cast<int>(i);
                  index.functions.push_back(std::move(fn));
                  scopes.push_back({Scope::kFunction, pend.name, depth,
                                    index.functions.size() - 1});
                  ++depth;
                  pend.active = false;
                }
              } else if (c == '}' && pend.brace_depth > 0) {
                --pend.brace_depth;
              } else if (c == ';' && pend.paren_depth == 0 &&
                         pend.brace_depth == 0) {
                pend.active = false;
              }
              break;
            default:
              pend.active = false;
              break;
          }
          if (c != ' ') pend.prev_nonspace = c;
          continue;
        }
        if (!in_function() && !mutex_scanned_line) {
          mutex_scanned_line = true;
          scan_mutex_decl(line, file.raw[li], enclosing_class(), &index);
        }
        if (c == '(' && !in_function()) {
          Pending cand;
          const std::string cls = enclosing_class();
          if (match_def_head(line, i, cls, !cls.empty(), &cand)) {
            cand.line = static_cast<int>(li) + 1;
            cand.paren_depth = 1;
            cand.prev_nonspace = '(';
            pend = cand;
            continue;
          }
        }
        if (c == '{') {
          Scope scope{Scope::kOther, {}, depth, 0};
          if (!in_function()) {
            const auto ns = find_word(head, "namespace");
            const auto cl = find_word(head, "class");
            const auto st = find_word(head, "struct");
            const bool is_enum =
                find_word(head, "enum") != std::string::npos;
            if (ns != std::string::npos) {
              scope.kind = Scope::kNamespace;
            } else if (!is_enum &&
                       (cl != std::string::npos || st != std::string::npos)) {
              const auto kw = cl != std::string::npos ? cl : st;
              const auto kwlen = cl != std::string::npos ? 5u : 6u;
              std::size_t j = kw + kwlen;
              while (j < head.size() && head[j] == ' ') ++j;
              std::size_t start = j;
              while (j < head.size() && is_ident_char(head[j])) ++j;
              if (j > start) {
                scope.kind = Scope::kClass;
                scope.name = head.substr(start, j - start);
              }
            }
          }
          scopes.push_back(scope);
          ++depth;
          head.clear();
        } else if (c == '}') {
          --depth;
          while (!scopes.empty() && scopes.back().open_depth >= depth) {
            if (scopes.back().kind == Scope::kFunction) {
              Function& fn = index.functions[scopes.back().fn];
              fn.body_end_line = static_cast<int>(li) + 1;
            }
            scopes.pop_back();
          }
          head.clear();
        } else if (c == ';') {
          head.clear();
        } else {
          head.push_back(c);
        }
      }
      if (!pend.active) head.push_back(' ');
    }
    // Unclosed function at EOF (unbalanced braces): bound it to the file.
    for (const auto& s : scopes) {
      if (s.kind == Scope::kFunction &&
          index.functions[s.fn].body_end_line == 0) {
        index.functions[s.fn].body_end_line =
            static_cast<int>(file.clean.size());
      }
    }
  }
  // Pass 2: per-body facts (needs the complete mutex identity table).
  std::map<const CleanFile*, std::set<std::string>> threads_by_file;
  for (auto& fn : index.functions) {
    auto it = threads_by_file.find(fn.body_file);
    if (it == threads_by_file.end()) {
      it = threads_by_file.emplace(fn.body_file, thread_idents(*fn.body_file))
               .first;
    }
    scan_body(fn, index, it->second);
  }
  for (auto& fn : index.functions) {
    index.by_name[fn.name].push_back(&fn);
  }
  return index;
}

}  // namespace dac::analyzer::internal

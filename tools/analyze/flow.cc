// Intra-procedural control-flow rules. Function bodies are located by
// signature shape (`) ... {` outside any other body, with ctor-init lists,
// qualifiers and DEEPREST_* attributes skipped), then each body gets:
//
//   * a linear lock-scope walk — RAII lock declarations (MutexLock,
//     lock_guard, unique_lock, scoped_lock) tracked by brace depth, plus
//     locks held via DEEPREST_REQUIRES on the signature:
//       - blocking-under-lock: cv waits (.wait/.wait_for/.wait_until —
//         MutexLock's capital Wait* wrappers release the lock and are
//         sanctioned), thread sleeps and SlabFile WriteSlot/ReadSlot disk
//         I/O while any lock is held;
//       - lock-graph-order: acquiring B while holding A when the global
//         graph orders B before A (or B == A, or A is lock-level(leaf)).
//
//   * a statement walk for resource-pairing: a discarded `x.Acquire*(...)`
//     statement destroys its lease (the state cache's pin) immediately —
//     the pin never existed.
#include <string>

#include "tools/analyze/analyze.h"

namespace deeprest_analyze {
namespace {

bool TokenIs(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && IsIdentChar(t[i].text[0]);
}

// Index just past the `)` matching the `(` at `open`.
size_t SkipParens(const std::vector<Token>& t, size_t open, size_t end) {
  int parens = 0;
  for (size_t j = open; j < end; ++j) {
    if (t[j].text == "(") {
      ++parens;
    } else if (t[j].text == ")" && --parens == 0) {
      return j + 1;
    }
  }
  return end;
}

// The `member.chain` (idents joined by . -> ::) ENDING at token `last`
// inclusive; `first_out` receives the chain's first token index.
std::string ChainEndingAt(const std::vector<Token>& t, size_t last, size_t* first_out) {
  size_t first = last;
  while (first >= 2) {
    const std::string& prev = t[first - 1].text;
    if (prev == "." && IsIdent(t, first - 2)) {
      first -= 2;
    } else if (prev == ">" && first >= 3 && t[first - 2].text == "-" &&
               IsIdent(t, first - 3)) {
      first -= 3;
    } else if (prev == ":" && first >= 3 && t[first - 2].text == ":" &&
               IsIdent(t, first - 3)) {
      first -= 3;
    } else {
      break;
    }
  }
  std::string chain;
  for (size_t j = first; j <= last; ++j) {
    chain += t[j].text;
  }
  if (first_out != nullptr) {
    *first_out = first;
  }
  return chain;
}

// ---------------------------------------------------------------------------
// Lock-scope walk: blocking-under-lock + lock-graph-order
// ---------------------------------------------------------------------------

struct HeldLock {
  int depth = 0;         // brace depth of the declaration (0 = whole function)
  std::string var;       // RAII variable name ("" for REQUIRES)
  std::string node_id;   // resolved graph node, "" if unresolved
  std::string display;   // what diagnostics call it
  int line = 0;
  bool active = true;
};

const char* kLockTypes[] = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"};

bool IsLockType(const std::string& s) {
  for (const char* type : kLockTypes) {
    if (s == type) {
      return true;
    }
  }
  return false;
}

void WalkLockScopes(const std::string& path, const FileScan& scan,
                    const LockGraph& graph, const std::string& owner,
                    const std::vector<std::string>& requires_args, size_t begin,
                    size_t end, Sink& sink) {
  const auto& t = scan.tokens;
  std::vector<HeldLock> held;
  for (const std::string& name : requires_args) {
    HeldLock lock;
    lock.depth = -1;  // outlives every scope in the body
    lock.node_id = graph.Resolve(name, owner);
    lock.display = lock.node_id.empty() ? name : lock.node_id;
    held.push_back(lock);
  }
  auto any_held = [&held] {
    for (const HeldLock& lock : held) {
      if (lock.active) {
        return true;
      }
    }
    return false;
  };
  auto innermost = [&held]() -> const HeldLock& {
    const HeldLock* best = &held.front();
    for (const HeldLock& lock : held) {
      if (lock.active) {
        best = &lock;
      }
    }
    return *best;
  };
  int depth = 0;
  for (size_t i = begin; i < end; ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      continue;
    }
    if (s == "}") {
      while (!held.empty() && held.back().depth == depth) {
        held.pop_back();
      }
      --depth;
      continue;
    }
    // RAII lock declaration: `MutexLock var(expr...)` (template args allowed
    // on the std types).
    if (IsLockType(s)) {
      size_t j = i + 1;
      if (TokenIs(t, j, "<")) {
        int angles = 0;
        for (; j < end; ++j) {
          if (t[j].text == "<") {
            ++angles;
          } else if (t[j].text == ">" && --angles == 0) {
            ++j;
            break;
          }
        }
      }
      if (!IsIdent(t, j) || !TokenIs(t, j + 1, "(")) {
        continue;
      }
      HeldLock lock;
      lock.depth = depth;
      lock.var = t[j].text;
      lock.line = t[j].line;
      // First constructor argument: the mutex expression.
      size_t arg_last = j + 1;
      size_t k = j + 2;
      int parens = 1;
      for (; k < end && parens > 0; ++k) {
        const std::string& a = t[k].text;
        if (a == "(") {
          ++parens;
        } else if (a == ")") {
          --parens;
        } else if (a == "," && parens == 1) {
          break;
        }
        if (parens >= 1 && IsIdentChar(a[0])) {
          arg_last = k;
        }
      }
      if (IsIdent(t, arg_last)) {
        const std::string bare = t[arg_last].text;
        lock.node_id = graph.Resolve(bare, owner);
        lock.display = lock.node_id.empty() ? ChainEndingAt(t, arg_last, nullptr)
                                            : lock.node_id;
        // Order check against everything currently held.
        for (const HeldLock& prior : held) {
          if (!prior.active) {
            continue;
          }
          const LockNode* prior_node = nullptr;
          auto node_it = graph.nodes.find(prior.node_id);
          if (node_it != graph.nodes.end()) {
            prior_node = &node_it->second;
          }
          if (!lock.node_id.empty() && !prior.node_id.empty() &&
              graph.OrderedBefore(lock.node_id, prior.node_id)) {
            sink.Report("lock-graph-order", path, lock.line,
                        lock.node_id == prior.node_id
                            ? "re-acquiring `" + lock.node_id + "` already held "
                              "in this scope — self-deadlock"
                            : "acquiring `" + lock.node_id + "` while holding `" +
                              prior.node_id + "` inverts the declared order (" +
                              lock.node_id + " is annotated before " +
                              prior.node_id + "); see DESIGN.md §7",
                        scan);
          } else if (prior_node != nullptr && prior_node->leaf) {
            sink.Report("lock-graph-order", path, lock.line,
                        "acquiring `" + lock.display + "` while holding `" +
                        prior.display + "`, which is annotated "
                        "lock-level(leaf) — leaf locks must be terminal",
                        scan);
          }
        }
      }
      held.push_back(lock);
      i = j + 1;  // resume inside the constructor args (events already taken)
      continue;
    }
    // Early release: `var.Unlock()` (MutexLock) / `var.unlock()` (std).
    if ((s == "Unlock" || s == "unlock") && i >= 2 && t[i - 1].text == "." &&
        TokenIs(t, i + 1, "(")) {
      for (HeldLock& lock : held) {
        if (lock.active && lock.var == t[i - 2].text) {
          lock.active = false;
        }
      }
      continue;
    }
    if (!any_held()) {
      continue;
    }
    // Blocking calls while a lock scope is live.
    const bool member_call =
        i >= 1 && (t[i - 1].text == "." ||
                   (t[i - 1].text == ">" && i >= 2 && t[i - 2].text == "-"));
    std::string what;
    if ((s == "WriteSlot" || s == "ReadSlot") && member_call &&
               TokenIs(t, i + 1, "(")) {
      what = "SlabFile::" + s + "() is disk I/O";
    } else if ((s == "sleep_for" || s == "sleep_until") && TokenIs(t, i + 1, "(")) {
      what = "thread sleep";
    } else if ((s == "wait" || s == "wait_for" || s == "wait_until") &&
               member_call && TokenIs(t, i + 1, "(")) {
      what = "raw condition-variable " + s + "() (it does not release the "
             "MutexLock; use MutexLock::Wait*)";
    }
    if (!what.empty()) {
      sink.Report("blocking-under-lock", path, t[i].line,
                  what + " while holding `" + innermost().display + "` — "
                  "blocking under a lock stalls every waiter; move it outside "
                  "the critical section (see src/serve/state_cache.h)",
                  scan);
    }
  }
}

// ---------------------------------------------------------------------------
// Resource-pairing: discarded leases
// ---------------------------------------------------------------------------

// Walks a body's statements — nested blocks, control-statement arms — and
// reports every statement whose top-level expression is a bare
// `x.Acquire*(...)` call: the returned lease is destroyed before the
// statement ends, so the pin it took is released at once. Conditions and
// returns use their value, so they are skipped.
class LeaseWalker {
 public:
  LeaseWalker(const std::string& path, const std::vector<Token>& t, const FileScan& scan,
              Sink& sink)
      : path_(path), t_(t), scan_(scan), sink_(sink) {}

  void WalkBlock(size_t b, size_t e) {
    size_t i = b;
    while (i < e) {
      const std::string& s = t_[i].text;
      if (s == ";" || s == "}" || s == "{" || s == "else" || s == "do") {
        ++i;  // a block's statements and a control statement's arm follow
        continue;
      }
      if ((s == "if" || s == "for" || s == "while" || s == "switch") &&
          TokenIs(t_, i + 1, "(")) {
        i = SkipParens(t_, i + 1, e);
        continue;
      }
      const size_t stmt_end = StatementEnd(i, e);
      if (s != "return") {
        CheckDiscardedAcquire(i, stmt_end);
      }
      i = stmt_end + 1;
    }
  }

 private:
  // End (the `;`) of the statement starting at `b`, skipping nested parens
  // and braces (lambda bodies, brace-init).
  size_t StatementEnd(size_t b, size_t e) const {
    int parens = 0;
    int braces = 0;
    for (size_t j = b; j < e; ++j) {
      const std::string& s = t_[j].text;
      if (s == "(") {
        ++parens;
      } else if (s == ")") {
        --parens;
      } else if (s == "{") {
        ++braces;
      } else if (s == "}") {
        if (braces == 0) {
          return j;  // enclosing block closes: statement ends here
        }
        --braces;
      } else if (s == ";" && parens <= 0 && braces == 0) {
        return j;
      }
    }
    return e;
  }

  // A statement whose top-level expression is a bare `x.Acquire*(...)` call
  // discards the returned lease immediately.
  void CheckDiscardedAcquire(size_t b, size_t stmt_end) {
    int parens = 0;
    for (size_t j = b; j < stmt_end; ++j) {
      const std::string& s = t_[j].text;
      if (s == "(") {
        ++parens;
        continue;
      }
      if (s == ")") {
        --parens;
        continue;
      }
      if (s == "=" && parens == 0) {
        return;  // the result is bound
      }
      if (parens == 0 && s.rfind("Acquire", 0) == 0 && j >= 1 &&
          (t_[j - 1].text == "." ||
           (t_[j - 1].text == ">" && j >= 2 && t_[j - 2].text == "-")) &&
          TokenIs(t_, j + 1, "(")) {
        sink_.Report("resource-pairing", path_, t_[j].line,
                     "`" + s + "(...)` result discarded — the returned lease "
                     "is destroyed before the statement ends, so the pin is "
                     "released immediately; bind it to a named local",
                     scan_);
        return;
      }
    }
  }

  const std::string& path_;
  const std::vector<Token>& t_;
  const FileScan& scan_;
  Sink& sink_;
};

// ---------------------------------------------------------------------------
// Function discovery
// ---------------------------------------------------------------------------

// Signature-suffix scan: from a top-level `)` forward to `{`, allowing
// cv-qualifiers, ref-qualifiers, noexcept, attributes, trailing return
// types, ctor-init lists and DEEPREST_* annotations. REQUIRES arguments are
// captured as held locks. Returns the body-open index, or 0 if this `)` does
// not end a function signature.
size_t FindBodyOpen(const std::vector<Token>& t, size_t close, size_t end,
                    std::vector<std::string>* requires_args) {
  size_t j = close + 1;
  const size_t limit = close + 200;
  while (j < end && j < limit) {
    const std::string& a = t[j].text;
    if (a == "{") {
      return j;
    }
    if (a == ";" || a == "=") {
      return 0;  // declaration, `= default/delete`, or an expression
    }
    if (a == "DEEPREST_REQUIRES" || a == "REQUIRES" || a == "requires_capability") {
      if (TokenIs(t, j + 1, "(")) {
        const size_t args_end = SkipParens(t, j + 1, end);
        std::string current;
        for (size_t k = j + 2; k + 1 < args_end; ++k) {
          if (t[k].text == ",") {
            if (!current.empty()) {
              requires_args->push_back(current);
            }
            current.clear();
          } else if (t[k].text == ":" || IsIdentChar(t[k].text[0])) {
            current += t[k].text;
          }
        }
        if (!current.empty()) {
          requires_args->push_back(current);
        }
        j = args_end;
        continue;
      }
    }
    if (a == "(") {
      j = SkipParens(t, j, end);
      continue;
    }
    ++j;
  }
  return 0;
}

}  // namespace

void RunFlowRules(const std::string& path, const FileScan& scan,
                  const LockGraph& graph, Sink& sink) {
  const auto& t = scan.tokens;
  // Class-body stack mirrors the indexer, so in-class method bodies resolve
  // member locks against the right owner.
  struct ClassBody {
    std::string name;
    int depth = 0;
  };
  std::vector<ClassBody> stack;
  int depth = 0;
  bool class_ahead = false;
  std::string class_name_ahead;
  size_t skip_function_scan_until = 0;  // inside an analyzed body
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "class" || s == "struct") {
      class_ahead = true;
      class_name_ahead.clear();
      if (IsIdent(t, i + 1)) {
        class_name_ahead = t[i + 1].text;
      }
      continue;
    }
    if (s == ";" && class_ahead) {
      class_ahead = false;
      continue;
    }
    if (s == "{") {
      ++depth;
      if (class_ahead) {
        stack.push_back({class_name_ahead, depth});
        class_ahead = false;
      }
      continue;
    }
    if (s == "}") {
      if (!stack.empty() && stack.back().depth == depth) {
        stack.pop_back();
      }
      --depth;
      continue;
    }
    if (s != ")" || i < skip_function_scan_until) {
      continue;
    }
    std::vector<std::string> requires_args;
    const size_t body_open = FindBodyOpen(t, i, t.size(), &requires_args);
    if (body_open == 0) {
      continue;
    }
    // Locate the signature's name and class qualifier: walk back to the `(`
    // matching this `)`, then over `Qual::Name`.
    size_t open = i;
    int parens = 0;
    while (open > 0) {
      if (t[open].text == ")") {
        ++parens;
      } else if (t[open].text == "(" && --parens == 0) {
        break;
      }
      --open;
    }
    std::string qualifier;
    if (open >= 1 && IsIdent(t, open - 1)) {
      size_t name_at = open - 1;
      std::string chain = ChainEndingAt(t, name_at, &name_at);
      const size_t sep = chain.rfind("::");
      if (sep != std::string::npos) {
        qualifier = chain.substr(0, sep);
        // Strip any leading namespace-ish segments conservatively: the graph
        // resolves suffix-qualified names, so the full chain is fine too.
      }
    }
    std::string owner;
    for (const ClassBody& body : stack) {
      if (!body.name.empty()) {
        owner += owner.empty() ? body.name : "::" + body.name;
      }
    }
    if (!qualifier.empty()) {
      owner = owner.empty() ? qualifier : owner + "::" + qualifier;
    }
    // Body range.
    int braces = 0;
    size_t body_close = body_open;
    for (; body_close < t.size(); ++body_close) {
      if (t[body_close].text == "{") {
        ++braces;
      } else if (t[body_close].text == "}" && --braces == 0) {
        break;
      }
    }
    WalkLockScopes(path, scan, graph, owner, requires_args, body_open + 1,
                   body_close, sink);
    LeaseWalker(path, scan.tokens, scan, sink).WalkBlock(body_open + 1, body_close);
    skip_function_scan_until = body_close;
  }
}

void CheckStaleInlineGrants(const std::string& path, const FileScan& scan, Sink& sink) {
  const auto by_path = sink.used_inline.find(path);
  for (const AllowGrant& grant : scan.grants) {
    if (by_path != sink.used_inline.end()) {
      const auto used = by_path->second.find(grant.rule);
      if (used != by_path->second.end() && used->second.count(grant.comment_line) > 0) {
        continue;
      }
    }
    sink.Report("stale-escape", path, grant.comment_line,
                "`" + grant.rule + "` escape here suppresses nothing — the "
                "violation it covered is gone; delete the comment so dead "
                "suppressions cannot hide new regressions",
                scan);
  }
}

}  // namespace deeprest_analyze

// Cross-file declaration/annotation indexer. Walks a token scan once and
// extracts the facts the global passes need:
//   * mutex members (deeprest::Mutex and std::mutex variants) with their
//     enclosing class chain, DEEPREST_ACQUIRED_AFTER / ACQUIRED_BEFORE
//     annotation arguments, lock-level(...) hierarchy comments, and any
//     inline allow() grants active on the declaration line;
//   * enum tables (scoped and unscoped) with their enumerator lists.
#include <cctype>

#include "tools/analyze/analyze.h"

namespace deeprest_analyze {
namespace {

bool TokenIs(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool PrecededByStd(const std::vector<Token>& t, size_t i) {
  return i >= 3 && t[i - 1].text == ":" && t[i - 2].text == ":" &&
         t[i - 3].text == "std";
}

// Collects comma-separated lock-name arguments (possibly `A::b` qualified)
// from the parenthesized list starting at the `(` token `open`. Returns the
// index of the matching `)`.
size_t CollectLockArgs(const std::vector<Token>& t, size_t open,
                       std::vector<std::string>* out) {
  int parens = 0;
  std::string current;
  size_t j = open;
  for (; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(") {
      ++parens;
      continue;
    }
    if (s == ")") {
      if (--parens == 0) {
        break;
      }
      continue;
    }
    if (s == ",") {
      if (!current.empty()) {
        out->push_back(current);
      }
      current.clear();
      continue;
    }
    if (s == ":" || IsIdentChar(s[0])) {
      current += s;
    }
  }
  if (!current.empty()) {
    out->push_back(current);
  }
  return j;
}

}  // namespace

FileFacts ExtractFacts(const std::string& path, const FileScan& scan) {
  (void)path;
  FileFacts facts;
  const auto& t = scan.tokens;

  struct ClassBody {
    std::string name;
    int depth = 0;
  };
  std::vector<ClassBody> stack;
  int depth = 0;
  bool class_ahead = false;
  bool class_base_clause = false;  // past the ':' of a base-specifier list
  int class_parens = 0;            // inside an attribute macro's argument list
  std::string class_name_ahead;

  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "enum") {
      // `enum [class|struct] Name [: underlying] { e1 [= v], e2, ... }`
      size_t j = i + 1;
      if (TokenIs(t, j, "class") || TokenIs(t, j, "struct")) {
        ++j;
      }
      std::string name;
      if (j < t.size() && IsIdentChar(t[j].text[0])) {
        name = t[j].text;
        ++j;
      }
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
        ++j;
      }
      if (j < t.size() && t[j].text == "{" && !name.empty()) {
        EnumFact fact;
        fact.name = name;
        fact.line = t[i].line;
        int braces = 0;
        bool expect_enumerator = true;
        for (; j < t.size(); ++j) {
          const std::string& e = t[j].text;
          if (e == "{") {
            ++braces;
            expect_enumerator = true;
            continue;
          }
          if (e == "}") {
            if (--braces == 0) {
              break;
            }
            continue;
          }
          if (braces == 1 && e == ",") {
            expect_enumerator = true;
            continue;
          }
          if (braces == 1 && expect_enumerator && IsIdentChar(e[0]) &&
              !std::isdigit(static_cast<unsigned char>(e[0]))) {
            fact.enumerators.push_back(e);
            expect_enumerator = false;
          }
        }
        if (!fact.enumerators.empty()) {
          facts.enums.push_back(fact);
        }
        i = j;  // resume after the enum body — `enum class` is not a ClassBody
      }
      continue;
    }
    if (s == "class" || s == "struct") {
      class_ahead = true;
      class_base_clause = false;
      class_parens = 0;
      class_name_ahead.clear();
      continue;
    }
    if (class_ahead && s != "{" && s != ";") {
      // The class name is the LAST plain identifier between the keyword and
      // the body — attribute macros (`class DEEPREST_CAPABILITY("x") Mutex`),
      // alignas(...), and `final` must not win, and nothing after the
      // base-clause ':' counts.
      if (s == "(") {
        ++class_parens;
      } else if (s == ")") {
        if (class_parens > 0) {
          --class_parens;
        }
      } else if (s == ":") {
        if (i + 1 < t.size() && t[i + 1].text == ":") {
          ++i;  // '::' qualifier: keep the chain (`struct ThreadPool::State`)
          class_name_ahead += "::";
        } else {
          class_base_clause = true;
        }
      } else if (!class_base_clause && class_parens == 0 && IsIdentChar(s[0]) &&
                 s != "final") {
        if (class_name_ahead.size() >= 2 &&
            class_name_ahead.compare(class_name_ahead.size() - 2, 2, "::") != 0) {
          class_name_ahead.clear();  // two bare names: the later one wins
        } else if (class_name_ahead.size() == 1) {
          class_name_ahead.clear();
        }
        class_name_ahead += s;
      }
      continue;
    }
    if (s == ";" && class_ahead) {
      class_ahead = false;  // forward declaration
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
    if (stack.empty() || stack.back().depth != depth) {
      continue;  // facts are class members; locals and globals are skipped
    }
    const bool mutex_type =
        (s == "Mutex" && !PrecededByStd(t, i)) ||
        ((s == "mutex" || s == "recursive_mutex" || s == "timed_mutex" ||
          s == "shared_mutex") &&
         PrecededByStd(t, i));
    if (!mutex_type || i + 1 >= t.size() || !IsIdentChar(t[i + 1].text[0])) {
      continue;
    }
    MutexFact fact;
    fact.name = t[i + 1].text;
    fact.line = t[i + 1].line;
    for (const ClassBody& body : stack) {
      if (!body.name.empty()) {
        fact.owner += fact.owner.empty() ? body.name : "::" + body.name;
      }
    }
    // Declaration suffix: annotations between the name and `;`/`=`.
    bool is_declaration = false;
    for (size_t j = i + 2; j < t.size(); ++j) {
      const std::string& a = t[j].text;
      if (a == ";" || a == "=" || a == "{") {
        is_declaration = a != "{";
        break;
      }
      if (a == "ACQUIRED_AFTER" || a == "DEEPREST_ACQUIRED_AFTER" ||
          a == "acquired_after") {
        if (TokenIs(t, j + 1, "(")) {
          j = CollectLockArgs(t, j + 1, &fact.acquired_after);
        }
        continue;
      }
      if (a == "ACQUIRED_BEFORE" || a == "DEEPREST_ACQUIRED_BEFORE" ||
          a == "acquired_before") {
        if (TokenIs(t, j + 1, "(")) {
          j = CollectLockArgs(t, j + 1, &fact.acquired_before);
        }
        continue;
      }
      if (a == "(" || a == ")" || a == ",") {
        // `Mutex name(...)` is a constructor call, and `Mutex name,`/`)` is
        // a parameter — not a member we can place in the hierarchy.
        is_declaration = false;
        break;
      }
    }
    if (!is_declaration) {
      continue;
    }
    // lock-level(...) comment on the declaration line or the line above.
    auto level = scan.lock_levels.find(fact.line);
    if (level == scan.lock_levels.end()) {
      level = scan.lock_levels.find(fact.line - 1);
    }
    if (level != scan.lock_levels.end()) {
      fact.lock_level = level->second;
    }
    for (const auto& [rule, lines] : scan.allowed_lines) {
      if (lines.count(fact.line) > 0) {
        fact.inline_allows.insert(rule);
      }
    }
    facts.mutexes.push_back(fact);
  }
  return facts;
}

}  // namespace deeprest_analyze

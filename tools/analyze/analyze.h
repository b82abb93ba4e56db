// deeprest_analyze — flow-aware project analyzer (the successor of the
// token-level deeprest_lint).
//
// Three layers, all dependency-free standalone C++:
//   * lexer.cc        — tokenizes C++ (comments/strings stripped, preprocessor
//                       lines collected, `deeprest-lint:` escape and
//                       `lock-level(...)` hierarchy comments recorded).
//   * index.cc        — per-file declaration/annotation facts: mutex members
//                       with their DEEPREST_ACQUIRED_AFTER / lock-level
//                       hierarchy annotations, and enum-class enumerator
//                       tables. Facts are cheap, serializable, and feed the
//                       cross-file passes.
//   * rules.cc/flow.cc/lockgraph.cc — the rule passes:
//       - the nine legacy token rules (ids unchanged, see rules.cc),
//         no-raw-tensor-node-new among them: it keeps TensorNode allocation
//         inside the arena of the tests' tape (tests/testing/tensor.cc);
//       - owned-nonlinearities: no libm exp / tanh in src/nn or src/core
//         outside src/nn/simd (the model's sigmoid and tanh are
//         simd::Sigmoid / simd::Tanh);
//       - lock-graph-{cycle,order,position}: global lock graph from the
//         annotations, cycle detection, intra-procedural acquisition-order
//         checking, hierarchy-position coverage, DOT export;
//       - resource-pairing: a discarded `x.Acquire*(...)` lease, whose pin
//         is released before the statement ends;
//       - blocking-under-lock: cv waits / thread sleeps / slab I/O while a
//         MutexLock scope is live (or under DEEPREST_REQUIRES);
//       - enum-switch: exhaustiveness for RequestStatus / KernelMode /
//         ColdTier switches;
//       - stale-escape: allow()/bounded() comments and allowlist entries
//         that no longer suppress anything.
//
// The engine (main.cc) adds machine-readable output (--format=sarif|github),
// a content-hash incremental cache (--cache FILE, cache.cc) and lock-graph
// DOT export (--dot FILE). Exit codes: 0 clean, 1 violations, 2 usage/IO.
#ifndef TOOLS_ANALYZE_ANALYZE_H_
#define TOOLS_ANALYZE_ANALYZE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace deeprest_analyze {

// Bump when rule semantics change: invalidates every incremental cache.
inline constexpr const char* kEngineVersion = "deeprest-analyze-v2";

// ---------------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
};

// One allow-rule (or bounded-cap) escape-comment grant: suppresses
// `rule` on comment_line and comment_line + 1. Tracked individually so a
// grant that suppresses nothing can be reported stale.
struct AllowGrant {
  std::string rule;
  int comment_line = 0;
};

struct FileScan {
  std::vector<Token> tokens;          // identifiers, numbers, punctuation
  std::vector<std::string> pp_lines;  // preprocessor lines, lowercased
  std::vector<int> pp_line_numbers;
  // rule -> lines granted by allow()/bounded() comments (line and line + 1).
  std::map<std::string, std::set<int>> allowed_lines;
  std::vector<AllowGrant> grants;
  // `// deeprest-lint: lock-level(<spec>)` comments: line -> spec text
  // ("leaf", "root", "after X [Y...]", "before X [Y...]").
  std::map<int, std::string> lock_levels;
};

FileScan ScanFile(const std::string& text);
bool IsIdentChar(char c);

// ---------------------------------------------------------------------------
// Diagnostics and suppression
// ---------------------------------------------------------------------------

struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

struct AllowlistEntry {
  std::string rule;  // "*" matches every rule
  std::string path_substring;
  int line = 0;  // line in the allowlist file, for stale-escape reports
};

// Shared sink: Report() applies inline grants and the allowlist, and records
// which escapes actually suppressed something (stale-escape's input).
struct Sink {
  std::vector<AllowlistEntry> allowlist;
  std::vector<Diagnostic> diagnostics;
  std::set<size_t> used_allowlist;  // indices into allowlist
  // path -> rule -> lines whose grant suppressed something.
  std::map<std::string, std::map<std::string, std::set<int>>> used_inline;

  // Suppression for facts-only passes (no FileScan in hand): the caller
  // passes the rules inline-granted at `line` explicitly.
  bool Suppressed(const std::string& rule, const std::string& path, int line,
                  const std::set<int>* granted_lines);
  void Report(const std::string& rule, const std::string& path, int line,
              const std::string& message, const FileScan& scan);
  // Facts-level report: `inline_rules` are the rules granted at the fact's
  // declaration line (carried through the cache for cached files).
  void ReportFact(const std::string& rule, const std::string& path, int line,
                  const std::string& message, const std::set<std::string>& inline_rules);
};

// ---------------------------------------------------------------------------
// Cross-file facts (the indexer's output; serialized into the cache)
// ---------------------------------------------------------------------------

struct MutexFact {
  std::string owner;  // enclosing class chain, "Outer::Inner" ("" for free)
  std::string name;
  int line = 0;
  std::vector<std::string> acquired_after;   // raw DEEPREST_ACQUIRED_AFTER args
  std::vector<std::string> acquired_before;  // raw DEEPREST_ACQUIRED_BEFORE args
  std::string lock_level;                    // raw lock-level(...) spec, or ""
  std::set<std::string> inline_allows;      // rules allow()ed at the decl line
};

struct EnumFact {
  std::string name;
  int line = 0;
  std::vector<std::string> enumerators;
};

struct FileFacts {
  std::vector<MutexFact> mutexes;
  std::vector<EnumFact> enums;
};

// Extracts facts (mutex members + annotations, enum tables) from one scan.
FileFacts ExtractFacts(const std::string& path, const FileScan& scan);

// ---------------------------------------------------------------------------
// Lock graph
// ---------------------------------------------------------------------------

struct LockNode {
  std::string id;    // "Class::member" (or bare name for free references)
  std::string path;  // declaring file ("" for nodes only ever referenced)
  int line = 0;
  bool leaf = false;
  bool has_position = false;  // own annotation, referenced, or lock-level
  std::set<std::string> inline_allows;
};

struct LockGraph {
  std::map<std::string, LockNode> nodes;
  // edges[a] = set of b with "a acquired before b".
  std::map<std::string, std::set<std::string>> edges;

  // True when `from` must be acquired before `to` (path in the edge graph).
  bool OrderedBefore(const std::string& from, const std::string& to) const;
  // Resolves a lock name seen in `owner`'s scope to a node id: exact member
  // of the owner chain, then qualified suffix, then unique bare name.
  std::string Resolve(const std::string& name, const std::string& owner) const;
};

// Builds the global graph from every file's facts and runs the global rules
// (lock-graph-cycle, lock-graph-position) into `sink`.
LockGraph BuildLockGraph(const std::map<std::string, FileFacts>& facts, Sink& sink);

// DOT rendering of the graph (the DESIGN.md §7 generator).
std::string LockGraphDot(const LockGraph& graph);

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

// The nine legacy token rules (ids unchanged from deeprest_lint) and
// owned-nonlinearities.
void RunTokenRules(const std::string& path, const FileScan& scan, Sink& sink);

// enum-switch exhaustiveness. `global_enums` maps enum name -> enumerators;
// a file-local definition of the same name wins (fixtures are self-contained).
void CheckEnumSwitch(const std::string& path, const FileScan& scan,
                     const std::map<std::string, std::vector<std::string>>& global_enums,
                     Sink& sink);

// The intra-procedural flow rules: lock-graph-order, blocking-under-lock,
// resource-pairing. Walks every function body in the file.
void RunFlowRules(const std::string& path, const FileScan& scan,
                  const LockGraph& graph, Sink& sink);

// stale-escape for inline grants: every allow()/bounded() comment must have
// suppressed at least one diagnostic in this run of the file.
void CheckStaleInlineGrants(const std::string& path, const FileScan& scan, Sink& sink);

// ---------------------------------------------------------------------------
// Incremental cache (cache.cc)
// ---------------------------------------------------------------------------

struct CachedFile {
  std::string content_hash;
  FileFacts facts;
  std::vector<Diagnostic> diagnostics;  // per-file diags (path omitted on disk)
  std::set<size_t> used_allowlist;      // allowlist entries this file consumed
};

struct Cache {
  std::string global_key;   // engine version + allowlist bytes hash
  std::string facts_hash;   // cross-file facts fingerprint of the last run
  std::map<std::string, CachedFile> files;
};

std::string HashBytes(const std::string& bytes);  // FNV-1a, hex
bool LoadCache(const std::string& path, Cache& cache);
bool SaveCache(const std::string& path, const Cache& cache);
std::string SerializeFacts(const FileFacts& facts);  // also the facts-hash input

// ---------------------------------------------------------------------------
// Output (output.cc)
// ---------------------------------------------------------------------------

std::string RenderText(const std::vector<Diagnostic>& diagnostics);
std::string RenderSarif(const std::vector<Diagnostic>& diagnostics);
std::string RenderGithub(const std::vector<Diagnostic>& diagnostics);

}  // namespace deeprest_analyze

#endif  // TOOLS_ANALYZE_ANALYZE_H_

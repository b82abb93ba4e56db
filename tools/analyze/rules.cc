// Token-level rule passes: the nine legacy deeprest_lint rules (ids, scopes
// and message text unchanged — fixtures, allowlists and allow-comments keep
// working), owned-nonlinearities, plus enum-switch exhaustiveness which needs
// the cross-file enum index. See tools/analyze/analyze.h for the rule inventory.
#include <cctype>
#include <filesystem>

#include "tools/analyze/analyze.h"

namespace deeprest_analyze {
namespace {

bool TokenIs(const std::vector<Token>& tokens, size_t i, const char* text) {
  return i < tokens.size() && tokens[i].text == text;
}

// True when tokens[i] is preceded by `std ::` (possibly `:: std ::`).
bool PrecededByStd(const std::vector<Token>& tokens, size_t i) {
  return i >= 2 && tokens[i - 1].text == ":" && tokens[i - 2].text == ":" && i >= 3 &&
         tokens[i - 3].text == "std";
}

// --------------------------------------------------------------------------
// Rule: no-unseeded-rand
// --------------------------------------------------------------------------
void CheckUnseededRand(const std::string& path, const FileScan& scan, Sink& sink) {
  const auto& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if ((s == "rand" || s == "srand" || s == "time") && TokenIs(t, i + 1, "(")) {
      // Member calls like foo.time(...) are still suspicious in src/; methods
      // named exactly `time` do not exist in this tree.
      sink.Report("no-unseeded-rand", path, t[i].line,
                  "call to `" + s + "()` — derive randomness from the seeded "
                  "generators in src/nn/rng.h so runs replay bit-for-bit",
                  scan);
    } else if (s == "random_device" || s == "rand_r" || s == "drand48") {
      sink.Report("no-unseeded-rand", path, t[i].line,
                  "`" + s + "` is nondeterministic — use src/nn/rng.h", scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: no-unordered-iteration
// --------------------------------------------------------------------------
bool IsByteStableTu(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  for (const char* pattern : {"serialize", "checkpoint", "stats", "json_export"}) {
    if (name.find(pattern) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void CheckUnorderedIteration(const std::string& path, const FileScan& scan, Sink& sink) {
  if (!IsByteStableTu(path)) {
    return;
  }
  const auto& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "unordered_map" || s == "unordered_set" || s == "unordered_multimap" ||
        s == "unordered_multiset") {
      sink.Report("no-unordered-iteration", path, t[i].line,
                  "`" + s + "` in a byte-stable translation unit (serialization/"
                  "checkpoint/stats export) — hash iteration order would leak "
                  "into the output bytes; use std::map/std::set or a sorted "
                  "vector",
                  scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: no-raw-tensor-node-new
// --------------------------------------------------------------------------
// The arena it guards is the node pool of the tests' tape
// (tests/testing/tensor.cc, the oracle's engine): every TensorNode comes from
// its freelist, which is the one allowlisted allocation site.
void CheckRawTensorNodeNew(const std::string& path, const FileScan& scan, Sink& sink) {
  const auto& t = scan.tokens;
  std::set<std::string> tensor_node_pointers;  // identifiers declared TensorNode*
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "new" && TokenIs(t, i + 1, "TensorNode")) {
      sink.Report("no-raw-tensor-node-new", path, t[i].line,
                  "`new TensorNode` outside the arena — nodes must come from "
                  "detail::AcquireNode() so the freelist accounting holds",
                  scan);
    }
    if (t[i].text == "TensorNode" && TokenIs(t, i + 1, "*") && i + 2 < t.size() &&
        IsIdentChar(t[i + 2].text[0]) && !std::isdigit(static_cast<unsigned char>(t[i + 2].text[0]))) {
      tensor_node_pointers.insert(t[i + 2].text);
    }
    if (t[i].text == "delete" && i + 1 < t.size() &&
        tensor_node_pointers.count(t[i + 1].text) > 0) {
      sink.Report("no-raw-tensor-node-new", path, t[i].line,
                  "`delete` of a TensorNode* outside the arena — release the "
                  "handle and let detail::RecycleTree() reclaim it",
                  scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: no-fast-math-reassoc
// --------------------------------------------------------------------------
bool IsNnPath(const std::string& path) {
  return path.find("src/nn/") != std::string::npos ||
         path.find("src\\nn\\") != std::string::npos;
}

void CheckFastMathReassoc(const std::string& path, const FileScan& scan, Sink& sink) {
  if (!IsNnPath(path)) {
    return;
  }
  const auto& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "reduce" && PrecededByStd(t, i)) {
      sink.Report("no-fast-math-reassoc", path, t[i].line,
                  "std::reduce reassociates freely — use std::accumulate or an "
                  "explicit loop so the summation order is fixed",
                  scan);
    }
    if (s == "ffast" || s == "ffast_math") {
      sink.Report("no-fast-math-reassoc", path, t[i].line,
                  "-ffast-math marker in src/nn — the kernels promise "
                  "bit-exactness between fused and reference paths",
                  scan);
    }
  }
  for (size_t i = 0; i < scan.pp_lines.size(); ++i) {
    const std::string& pp = scan.pp_lines[i];
    if (pp.find("float_control") != std::string::npos ||
        pp.find("fp_contract") != std::string::npos ||
        pp.find("fast_math") != std::string::npos ||
        pp.find("associative_math") != std::string::npos) {
      sink.Report("no-fast-math-reassoc", path, scan.pp_line_numbers[i],
                  "float-semantics pragma in src/nn — reassociation/contraction "
                  "breaks the bit-exactness contract (build-wide "
                  "-ffp-contract=off is the only sanctioned setting)",
                  scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: mutex-needs-guarded-by
// --------------------------------------------------------------------------
struct MutexMember {
  std::string name;
  int line = 0;
};

void CheckMutexGuardedBy(const std::string& path, const FileScan& scan, Sink& sink) {
  const auto& t = scan.tokens;
  // Stack of open class/struct bodies. Each entry: brace depth at which the
  // body opened, mutex members seen, names referenced by guard annotations.
  struct ClassBody {
    int depth = 0;
    std::vector<MutexMember> mutexes;
    std::set<std::string> guarded;
  };
  std::vector<ClassBody> stack;
  int depth = 0;
  bool class_ahead = false;  // saw class/struct keyword, body brace pending
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "class" || s == "struct") {
      // `enum class` is not a body we care about; a following `{` still
      // balances, so treating it as a (mutex-free) body is harmless.
      class_ahead = true;
      continue;
    }
    if (s == ";" && class_ahead) {
      class_ahead = false;  // forward declaration
      continue;
    }
    if (s == "{") {
      ++depth;
      if (class_ahead) {
        stack.push_back({depth, {}, {}});
        class_ahead = false;
      }
      continue;
    }
    if (s == "}") {
      if (!stack.empty() && stack.back().depth == depth) {
        for (const MutexMember& m : stack.back().mutexes) {
          if (stack.back().guarded.count(m.name) == 0) {
            sink.Report("mutex-needs-guarded-by", path, m.line,
                        "mutex member `" + m.name + "` has no "
                        "DEEPREST_GUARDED_BY(" + m.name + ") field (or "
                        "REQUIRES/PT_GUARDED_BY) in its class — declare what "
                        "it guards or remove it",
                        scan);
          }
        }
        stack.pop_back();
      }
      --depth;
      continue;
    }
    if (stack.empty()) {
      continue;
    }
    // Member declaration `Mutex name ;` or `std::mutex name ;` (also
    // recursive/timed/shared variants) directly inside a class body. An
    // ACQUIRED_AFTER/BEFORE annotation between the name and `;` still
    // declares a member (the indexer parses the annotation itself).
    const bool mutex_type = (s == "Mutex" && !PrecededByStd(t, i)) || ((s == "mutex" ||
                            s == "recursive_mutex" || s == "timed_mutex" ||
                            s == "shared_mutex") && PrecededByStd(t, i));
    if (mutex_type && stack.back().depth == depth && i + 2 < t.size() &&
        IsIdentChar(t[i + 1].text[0]) &&
        (t[i + 2].text == ";" || t[i + 2].text == "=" ||
         t[i + 2].text.find("ACQUIRED_") != std::string::npos)) {
      stack.back().mutexes.push_back({t[i + 1].text, t[i + 1].line});
      continue;
    }
    // Guard annotations: DEEPREST_GUARDED_BY(x), DEEPREST_PT_GUARDED_BY(x),
    // DEEPREST_REQUIRES(x...), plus the raw Clang spellings for code that
    // uses them directly.
    if (s == "DEEPREST_GUARDED_BY" || s == "DEEPREST_PT_GUARDED_BY" ||
        s == "DEEPREST_REQUIRES" || s == "DEEPREST_ACQUIRE" || s == "DEEPREST_RELEASE" ||
        s == "GUARDED_BY" || s == "PT_GUARDED_BY" || s == "REQUIRES" ||
        s == "guarded_by" || s == "pt_guarded_by" || s == "requires_capability") {
      // Collect identifier arguments until the matching ')'.
      size_t j = i + 1;
      if (TokenIs(t, j, "(")) {
        int parens = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "(") {
            ++parens;
          } else if (t[j].text == ")") {
            if (--parens == 0) {
              break;
            }
          } else if (IsIdentChar(t[j].text[0])) {
            for (ClassBody& body : stack) {
              body.guarded.insert(t[j].text);
            }
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Rule: no-detached-threads
// --------------------------------------------------------------------------
void CheckDetachedThreads(const std::string& path, const FileScan& scan, Sink& sink) {
  const auto& t = scan.tokens;
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i].text == "detach" && TokenIs(t, i + 1, "(") && TokenIs(t, i + 2, ")") &&
        (t[i - 1].text == "." ||
         (t[i - 1].text == ">" && i >= 2 && t[i - 2].text == "-"))) {
      sink.Report("no-detached-threads", path, t[i].line,
                  "detached thread — detached threads outlive Stop()/shutdown, "
                  "race static destruction and defeat TSan; join it (RAII "
                  "owner or ThreadPool)",
                  scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: heartbeat-on-loop
// --------------------------------------------------------------------------
bool IsSupervisedLoopPath(const std::string& path) {
  for (const char* pattern : {"src/serve", "src\\serve", "src/autoscale",
                              "src\\autoscale"}) {
    if (path.find(pattern) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void CheckHeartbeatOnLoop(const std::string& path, const FileScan& scan, Sink& sink) {
  if (!IsSupervisedLoopPath(path)) {
    return;
  }
  const auto& t = scan.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "while" || !TokenIs(t, i + 1, "(")) {
      continue;
    }
    // Condition: the parenthesized expression after `while`. The rule fires
    // only on stop-flag loops — `! stop...` anywhere in the condition.
    size_t cond_end = t.size();
    bool stop_loop = false;
    int parens = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "(") {
        ++parens;
      } else if (t[j].text == ")") {
        if (--parens == 0) {
          cond_end = j;
          break;
        }
      } else if (t[j].text == "!" && j + 1 < t.size() &&
                 t[j + 1].text.rfind("stop", 0) == 0) {
        stop_loop = true;
      }
    }
    if (!stop_loop || cond_end == t.size()) {
      continue;
    }
    // Body: braced block or single statement.
    const size_t body_begin = cond_end + 1;
    size_t body_end = body_begin;
    if (TokenIs(t, body_begin, "{")) {
      int braces = 0;
      for (size_t j = body_begin; j < t.size(); ++j) {
        if (t[j].text == "{") {
          ++braces;
        } else if (t[j].text == "}" && --braces == 0) {
          body_end = j;
          break;
        }
      }
    } else {
      while (body_end < t.size() && t[body_end].text != ";") {
        ++body_end;
      }
    }
    bool has_heartbeat = false;
    bool has_wait = false;  // cv predicate loop — the cv wakes it, not a poll
    for (size_t j = body_begin; j < body_end; ++j) {
      if (t[j].text == "Heartbeat" && TokenIs(t, j + 1, "(")) {
        has_heartbeat = true;
      }
      if (t[j].text == "Wait" || t[j].text == "WaitFor" || t[j].text == "WaitUntil") {
        has_wait = true;
      }
    }
    if (!has_heartbeat && !has_wait) {
      sink.Report("heartbeat-on-loop", path, t[i].line,
                  "stop-flag worker loop without a Heartbeat() call — publish "
                  "liveness into the HealthRegistry each iteration so the "
                  "Watchdog can tell a stall from a slow sweep",
                  scan);
    }
  }
}

// --------------------------------------------------------------------------
// Rule: bounded-containers-in-serve
// --------------------------------------------------------------------------
bool IsServePath(const std::string& path) {
  return path.find("src/serve") != std::string::npos ||
         path.find("src\\serve") != std::string::npos;
}

void CheckBoundedContainersInServe(const std::string& path, const FileScan& scan,
                                   Sink& sink) {
  if (!IsServePath(path)) {
    return;
  }
  const auto& t = scan.tokens;
  // Same class-body tracking as mutex-needs-guarded-by: a container is a
  // MEMBER when it sits at the body's own brace depth, outside parentheses
  // (not a parameter), is not a using/typedef alias, and is not a method's
  // return type (next-after-template token followed by `(`).
  struct ClassBody {
    int depth = 0;
  };
  std::vector<ClassBody> stack;
  int depth = 0;
  int parens = 0;
  bool class_ahead = false;
  size_t stmt_start = 0;  // token index after the last ; { }
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "class" || s == "struct") {
      class_ahead = true;
      continue;
    }
    if (s == ";" && class_ahead) {
      class_ahead = false;
      stmt_start = i + 1;
      continue;
    }
    if (s == "(") {
      ++parens;
      continue;
    }
    if (s == ")") {
      parens = parens > 0 ? parens - 1 : 0;
      continue;
    }
    if (s == "{") {
      ++depth;
      if (class_ahead) {
        stack.push_back({depth});
        class_ahead = false;
      }
      stmt_start = i + 1;
      continue;
    }
    if (s == "}") {
      if (!stack.empty() && stack.back().depth == depth) {
        stack.pop_back();
      }
      --depth;
      stmt_start = i + 1;
      continue;
    }
    if (s == ";") {
      stmt_start = i + 1;
      continue;
    }
    const bool container = (s == "map" || s == "unordered_map" || s == "multimap" ||
                            s == "unordered_multimap") &&
                           PrecededByStd(t, i);
    if (!container || stack.empty() || stack.back().depth != depth || parens != 0) {
      continue;
    }
    bool is_alias = false;
    for (size_t j = stmt_start; j < i; ++j) {
      if (t[j].text == "using" || t[j].text == "typedef") {
        is_alias = true;
        break;
      }
    }
    if (is_alias) {
      continue;
    }
    // Skip the template argument list to find the declared name.
    size_t j = i + 1;
    if (TokenIs(t, j, "<")) {
      int angles = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") {
          ++angles;
        } else if (t[j].text == ">" && --angles == 0) {
          ++j;
          break;
        }
      }
    }
    // `std::map<...> Name(` is a method returning a map, not a member.
    if (j < t.size() && IsIdentChar(t[j].text[0]) && TokenIs(t, j + 1, "(")) {
      continue;
    }
    sink.Report("bounded-containers-in-serve", path, t[i].line,
                "std::" + s + " member in src/serve without a "
                "`// deeprest-lint: bounded(<how>)` annotation — serving-layer "
                "containers index unbounded key spaces; document the eviction/"
                "cap mechanism (byte budget, FIFO drop, retention limit) on "
                "the member or the line above",
                scan);
  }
}

// --------------------------------------------------------------------------
// Rule: intrinsics-only-in-simd
// --------------------------------------------------------------------------
bool IsSimdPath(const std::string& path) {
  return path.find("src/nn/simd/") != std::string::npos ||
         path.find("src\\nn\\simd\\") != std::string::npos;
}

bool IsSimdIntrinsicToken(const std::string& s) {
  // x86: _mm_*, _mm256_*, _mm512_* calls; __m128/__m256i/__m512d vector
  // types; AVX-512 __mmask* predicate types.
  if (s.rfind("_mm", 0) == 0) {
    return true;
  }
  if (s.rfind("__mmask", 0) == 0) {
    return true;
  }
  if (s.rfind("__m", 0) == 0 && s.size() > 3 &&
      std::isdigit(static_cast<unsigned char>(s[3]))) {
    return true;
  }
  // NEON: the load/store/arithmetic families used by vector kernels. Prefix
  // match so lane-width suffixes (vld1q_f32, vfmaq_laneq_f32, ...) all hit.
  for (const char* prefix : {"vld1", "vst1", "vfmaq", "vmlaq", "vaddq", "vmulq",
                             "vsubq", "vdupq", "vmull", "vpadalq", "vgetq",
                             "vcvt_f64_f32", "vcvt_f32_f64"}) {
    if (s.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

void CheckIntrinsicsOnlyInSimd(const std::string& path, const FileScan& scan,
                               Sink& sink) {
  if (IsSimdPath(path)) {
    return;
  }
  const auto& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsSimdIntrinsicToken(t[i].text)) {
      sink.Report("intrinsics-only-in-simd", path, t[i].line,
                  "raw SIMD intrinsic `" + t[i].text + "` outside src/nn/simd/ "
                  "— route vector code through simd::* (src/nn/simd/dispatch.h) "
                  "so the runtime ISA dispatcher, the scalar fallback, and the "
                  "bit-exactness tests all cover it",
                  scan);
    }
  }
  for (size_t i = 0; i < scan.pp_lines.size(); ++i) {
    const std::string& pp = scan.pp_lines[i];
    for (const char* header : {"immintrin.h", "arm_neon.h", "xmmintrin.h",
                               "emmintrin.h", "avxintrin.h"}) {
      if (pp.find(header) != std::string::npos) {
        sink.Report("intrinsics-only-in-simd", path, scan.pp_line_numbers[i],
                    std::string("#include <") + header + "> outside "
                    "src/nn/simd/ — intrinsics headers (and the code that "
                    "needs them) belong behind the dispatch layer",
                    scan);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Rule: owned-nonlinearities
// --------------------------------------------------------------------------
// Every float sigmoid and tanh of the model is simd::Sigmoid / simd::Tanh:
// owned bodies (src/nn/simd/nonlinear.h) whose bits do not depend on the
// host's libm or on which of its ifunc variants runs. A libm exp or tanh in
// the model's code would bring that dependence back.
bool IsModelMathPath(const std::string& path) {
  const bool core = path.find("src/core/") != std::string::npos ||
                    path.find("src\\core\\") != std::string::npos;
  return (IsNnPath(path) || core) && !IsSimdPath(path);
}

void CheckOwnedNonlinearities(const std::string& path, const FileScan& scan, Sink& sink) {
  if (!IsModelMathPath(path)) {
    return;
  }
  const auto& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    const bool std_call = (s == "exp" || s == "tanh") && PrecededByStd(t, i);
    const bool libm_call = (s == "expf" || s == "tanhf") && TokenIs(t, i + 1, "(");
    if (std_call || libm_call) {
      sink.Report("owned-nonlinearities", path, t[i].line,
                  "libm `" + s + "` in the model's code — use simd::Sigmoid / "
                  "simd::Tanh (src/nn/simd/dispatch.h), whose bits do not depend "
                  "on the host's libm",
                  scan);
    }
  }
}

}  // namespace

void RunTokenRules(const std::string& path, const FileScan& scan, Sink& sink) {
  CheckUnseededRand(path, scan, sink);
  CheckUnorderedIteration(path, scan, sink);
  CheckRawTensorNodeNew(path, scan, sink);
  CheckFastMathReassoc(path, scan, sink);
  CheckMutexGuardedBy(path, scan, sink);
  CheckDetachedThreads(path, scan, sink);
  CheckHeartbeatOnLoop(path, scan, sink);
  CheckBoundedContainersInServe(path, scan, sink);
  CheckIntrinsicsOnlyInSimd(path, scan, sink);
  CheckOwnedNonlinearities(path, scan, sink);
}

// --------------------------------------------------------------------------
// Rule: enum-switch
// --------------------------------------------------------------------------
// Exhaustiveness for the enums whose silent fall-through has bitten this
// tree before: a `switch` over one of them must either name every enumerator
// in a `case Enum::member` label or carry a `default:`. Detection keys off
// qualified case labels, so plain integer switches never match. A file-local
// enum definition shadows the global table (fixtures are self-contained).
void CheckEnumSwitch(const std::string& path, const FileScan& scan,
                     const std::map<std::string, std::vector<std::string>>& global_enums,
                     Sink& sink) {
  static const std::set<std::string> kEnforced = {"RequestStatus", "KernelMode",
                                                  "ColdTier"};
  const auto& t = scan.tokens;
  // Local enum definitions win over the global table.
  std::map<std::string, std::vector<std::string>> local_enums;
  const FileFacts local = ExtractFacts(path, scan);
  for (const EnumFact& e : local.enums) {
    local_enums[e.name] = e.enumerators;
  }
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "switch" || t[i + 1].text != "(") {
      continue;
    }
    // Skip the condition to the switch body.
    size_t j = i + 1;
    int parens = 0;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") {
        ++parens;
      } else if (t[j].text == ")" && --parens == 0) {
        break;
      }
    }
    ++j;
    if (j >= t.size() || t[j].text != "{") {
      continue;
    }
    const size_t body_begin = j;
    size_t body_end = body_begin;
    int braces = 0;
    for (; body_end < t.size(); ++body_end) {
      if (t[body_end].text == "{") {
        ++braces;
      } else if (t[body_end].text == "}" && --braces == 0) {
        break;
      }
    }
    // Collect `case Qualifier::member` labels and `default:` anywhere in the
    // body (nested switches over the same enum only ever add coverage).
    std::map<std::string, std::set<std::string>> seen;
    bool has_default = false;
    for (size_t k = body_begin; k < body_end; ++k) {
      if (t[k].text == "default" && k + 1 < body_end && t[k + 1].text == ":") {
        has_default = true;
      }
      if (t[k].text == "case" && k + 4 < body_end && IsIdentChar(t[k + 1].text[0]) &&
          t[k + 2].text == ":" && t[k + 3].text == ":" &&
          IsIdentChar(t[k + 4].text[0])) {
        seen[t[k + 1].text].insert(t[k + 4].text);
      }
    }
    if (has_default) {
      continue;
    }
    for (const auto& [qualifier, members] : seen) {
      if (kEnforced.count(qualifier) == 0) {
        continue;
      }
      const std::vector<std::string>* table = nullptr;
      auto local_it = local_enums.find(qualifier);
      if (local_it != local_enums.end()) {
        table = &local_it->second;
      } else {
        auto global_it = global_enums.find(qualifier);
        if (global_it != global_enums.end()) {
          table = &global_it->second;
        }
      }
      if (table == nullptr) {
        continue;
      }
      std::string missing;
      for (const std::string& enumerator : *table) {
        if (members.count(enumerator) == 0) {
          missing += missing.empty() ? enumerator : ", " + enumerator;
        }
      }
      if (!missing.empty()) {
        sink.Report("enum-switch", path, t[i].line,
                    "switch over " + qualifier + " has no case for " + missing +
                    " and no default — handle every enumerator so new states "
                    "cannot fall through silently",
                    scan);
      }
    }
  }
}

}  // namespace deeprest_analyze

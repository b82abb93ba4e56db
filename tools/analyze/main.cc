// deeprest_analyze driver. CLI is a superset of the old deeprest_lint:
//
//   deeprest_analyze [--root DIR] [--allowlist FILE] [--format=text|sarif|github]
//                    [--out FILE] [--dot FILE] [--stats] [file...]
//
// With explicit files only those are analyzed (fixture tests); otherwise
// every .h/.cc/.cpp/.hpp under DIR/src, DIR/tools and DIR/tests is walked
// (self-lint: the analyzer's own sources are in scope). Exit code: 0 clean,
// 1 violations, 2 usage/IO error.
//
// Run order matters for escape-usage accounting: global passes (lock graph)
// first, then per-file passes, then stale-escape — an inline allow consumed
// by a global diagnostic is live, not stale.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/analyze/analyze.h"

namespace {

using namespace deeprest_analyze;

struct FileState {
  std::string path;
  FileScan scan;
};

bool ReadFileBytes(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

bool LoadAllowlist(const std::string& path, Sink& sink) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream stream(line);
    std::string rule;
    std::string substring;
    if (stream >> rule >> substring) {
      sink.allowlist.push_back({rule, substring, line_number});
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string allowlist_path;
  std::string format = "text";
  std::string out_path;
  std::string dot_path;
  bool stats = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: deeprest_analyze [--root DIR] [--allowlist FILE] "
          "[--format=text|sarif|github] [--out FILE] [--dot FILE] [--stats] "
          "[file...]\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (format != "text" && format != "sarif" && format != "github") {
    std::fprintf(stderr, "deeprest_analyze: unknown --format %s\n", format.c_str());
    return 2;
  }

  Sink sink;
  if (!allowlist_path.empty() && !LoadAllowlist(allowlist_path, sink)) {
    std::fprintf(stderr, "deeprest_analyze: cannot read allowlist %s\n",
                 allowlist_path.c_str());
    return 2;
  }

  if (files.empty()) {
    const std::filesystem::path src = std::filesystem::path(root) / "src";
    if (!std::filesystem::exists(src)) {
      std::fprintf(stderr, "deeprest_analyze: no src/ under --root %s\n", root.c_str());
      return 2;
    }
    for (const char* top : {"src", "tools", "tests"}) {
      const std::filesystem::path dir = std::filesystem::path(root) / top;
      if (!std::filesystem::exists(dir)) {
        continue;
      }
      for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file()) {
          continue;
        }
        const std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp") {
          files.push_back(entry.path().string());
        }
      }
    }
    std::sort(files.begin(), files.end());  // deterministic diagnostic order
  }

  // Phase A: read, lex and index every file.
  std::vector<FileState> states;
  states.reserve(files.size());
  std::map<std::string, FileFacts> facts_by_path;
  for (const std::string& file : files) {
    FileState state;
    state.path = std::filesystem::path(file).generic_string();
    std::string bytes;
    if (!ReadFileBytes(file, &bytes)) {
      std::fprintf(stderr, "deeprest_analyze: cannot read %s\n", file.c_str());
      return 2;
    }
    state.scan = ScanFile(bytes);
    facts_by_path[state.path] = ExtractFacts(state.path, state.scan);
    states.push_back(std::move(state));
  }

  // Phase B: global passes, then per-file passes.
  LockGraph graph = BuildLockGraph(facts_by_path, sink);
  std::map<std::string, std::vector<std::string>> global_enums;
  for (const auto& [path, facts] : facts_by_path) {
    (void)path;
    for (const EnumFact& e : facts.enums) {
      global_enums.emplace(e.name, e.enumerators);  // first definition wins
    }
  }
  for (const FileState& state : states) {
    RunTokenRules(state.path, state.scan, sink);
    CheckEnumSwitch(state.path, state.scan, global_enums, sink);
    RunFlowRules(state.path, state.scan, graph, sink);
    CheckStaleInlineGrants(state.path, state.scan, sink);
  }

  // Stale allowlist entries, from the full diagnostic+usage picture.
  for (size_t k = 0; k < sink.allowlist.size(); ++k) {
    if (sink.used_allowlist.count(k) > 0) {
      continue;
    }
    const AllowlistEntry& entry = sink.allowlist[k];
    sink.ReportFact("stale-escape", allowlist_path, entry.line,
                    "allowlist entry `" + entry.rule + " " + entry.path_substring +
                    "` matched no diagnostic in this run — the violation it "
                    "suppressed is gone; delete the entry",
                    {});
  }

  std::sort(sink.diagnostics.begin(), sink.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) {
                return a.path < b.path;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              if (a.rule != b.rule) {
                return a.rule < b.rule;
              }
              return a.message < b.message;
            });
  sink.diagnostics.erase(
      std::unique(sink.diagnostics.begin(), sink.diagnostics.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                    return a.path == b.path && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      sink.diagnostics.end());

  if (!dot_path.empty()) {
    const std::string dot = LockGraphDot(graph);
    if (dot_path == "-") {
      std::fwrite(dot.data(), 1, dot.size(), stdout);
    } else {
      std::ofstream out(dot_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "deeprest_analyze: cannot write %s\n", dot_path.c_str());
        return 2;
      }
      out << dot;
    }
  }

  if (stats) {
    std::printf("deeprest_analyze: %zu files, %zu diagnostic(s)\n", states.size(),
                sink.diagnostics.size());
  }

  if (format == "sarif" || format == "github") {
    const std::string rendered = format == "sarif" ? RenderSarif(sink.diagnostics)
                                                   : RenderGithub(sink.diagnostics);
    if (out_path.empty() || out_path == "-") {
      std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "deeprest_analyze: cannot write %s\n", out_path.c_str());
        return 2;
      }
      out << rendered;
    }
  } else if (!sink.diagnostics.empty()) {
    const std::string rendered = RenderText(sink.diagnostics);
    std::fwrite(rendered.data(), 1, rendered.size(), stderr);
    std::fprintf(stderr, "deeprest_analyze: %zu violation(s)\n",
                 sink.diagnostics.size());
  }
  return sink.diagnostics.empty() ? 0 : 1;
}

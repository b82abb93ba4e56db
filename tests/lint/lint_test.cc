// Rule-level tests for tools/analyze/deeprest_analyze: each fixture under
// tests/lint/fixtures is a minimal file violating exactly one rule (plus
// clean/suppressed files and per-rule passing fixtures for the flow-aware
// rule classes). The test shells out to the real binary — the same one
// `ctest -L lint` runs over src/, tools/ and tests/ — and asserts the exact
// rule id fires (or doesn't), and that the lock-graph DOT export names the
// declared hierarchy.
//
// DEEPREST_LINT_BIN and DEEPREST_LINT_FIXTURES are injected by CMake.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& args) {
  const std::string command = std::string(DEEPREST_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  LintRun run;
  if (pipe == nullptr) {
    return run;
  }
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code = status >= 256 ? status / 256 : status;  // WEXITSTATUS without <sys/wait.h>
  return run;
}

std::string Fixture(const std::string& name) {
  return std::string(DEEPREST_LINT_FIXTURES) + "/" + name;
}

// Every rule the analyzer can emit — used to assert single-rule purity of
// the minimal fixtures.
const char* const kAllRules[] = {
    "no-unseeded-rand",      "no-unordered-iteration", "no-raw-tensor-node-new",
    "no-fast-math-reassoc",  "mutex-needs-guarded-by", "no-detached-threads",
    "heartbeat-on-loop",     "intrinsics-only-in-simd",
    "bounded-containers-in-serve", "owned-nonlinearities",
    "lock-graph-cycle",      "lock-graph-order",       "lock-graph-position",
    "resource-pairing",      "blocking-under-lock",    "enum-switch",
    "stale-escape"};

// One violating fixture per rule: the named rule must fire (and carry a
// file:line diagnostic), and the run must fail.
struct RuleCase {
  const char* fixture;
  const char* rule;
};

class LintRuleTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(LintRuleTest, ViolatingFixtureTripsExactlyItsRule) {
  const RuleCase& c = GetParam();
  const LintRun run = RunLint(Fixture(c.fixture));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(std::string("[") + c.rule + "]"), std::string::npos)
      << "expected rule " << c.rule << " in:\n"
      << run.output;
  // Minimal fixtures are single-purpose: no OTHER rule may fire.
  for (const char* other : kAllRules) {
    if (std::string(other) != c.rule) {
      EXPECT_EQ(run.output.find(std::string("[") + other + "]"), std::string::npos)
          << "unexpected rule " << other << " in:\n"
          << run.output;
    }
  }
  // Diagnostics must be clickable file:line.
  EXPECT_NE(run.output.find(std::string(c.fixture) + ":"), std::string::npos) << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRuleTest,
    ::testing::Values(
        RuleCase{"rand_violation.cc", "no-unseeded-rand"},
        RuleCase{"checkpoint_unordered_violation.cc", "no-unordered-iteration"},
        RuleCase{"tensor_new_violation.cc", "no-raw-tensor-node-new"},
        RuleCase{"src/nn/reassoc_violation.cc", "no-fast-math-reassoc"},
        RuleCase{"mutex_violation.cc", "mutex-needs-guarded-by"},
        RuleCase{"detach_violation.cc", "no-detached-threads"},
        RuleCase{"src/serve/heartbeat_violation.cc", "heartbeat-on-loop"},
        RuleCase{"src/nn/intrinsics_violation.cc", "intrinsics-only-in-simd"},
        RuleCase{"src/nn/nonlinearity_violation.cc", "owned-nonlinearities"},
        RuleCase{"src/serve/bounded_violation.cc", "bounded-containers-in-serve"},
        RuleCase{"src/serve/lock_cycle_violation.cc", "lock-graph-cycle"},
        RuleCase{"src/serve/lock_order_violation.cc", "lock-graph-order"},
        RuleCase{"src/serve/lock_position_violation.cc", "lock-graph-position"},
        RuleCase{"resource_discarded_lease_violation.cc", "resource-pairing"},
        RuleCase{"blocking_violation.cc", "blocking-under-lock"},
        RuleCase{"enum_switch_violation.cc", "enum-switch"},
        RuleCase{"stale_escape_violation.cc", "stale-escape"}),
    [](const ::testing::TestParamInfo<RuleCase>& param_info) {
      // Names derive from the fixture file, not the rule.
      std::string name = param_info.param.fixture;
      const size_t slash = name.rfind('/');
      if (slash != std::string::npos) {
        name = name.substr(slash + 1);
      }
      const size_t dot = name.rfind('.');
      if (dot != std::string::npos) {
        name = name.substr(0, dot);
      }
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
          ch = '_';
        }
      }
      return name;
    });

TEST(LintTest, CleanFilePasses) {
  const LintRun run = RunLint(Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(LintTest, AllowCommentsSuppressSameAndNextLine) {
  const LintRun run = RunLint(Fixture("suppressed.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// heartbeat-on-loop is path-scoped AND shape-scoped: a heartbeating loop, a
// cv predicate wait, and an allow-comment grant must all pass; the identical
// un-heartbeated loop outside src/serve|src/autoscale never fires.
TEST(LintTest, HeartbeatRuleAcceptsSanctionedLoopShapes) {
  const LintRun run = RunLint(Fixture("src/serve/heartbeat_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintTest, HeartbeatRuleIsScopedToSupervisedPaths) {
  // clean.cc sits outside src/serve and src/autoscale — out of scope even
  // though it has no heartbeats.
  const LintRun run = RunLint(Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// bounded-containers-in-serve accepts every sanctioned shape: annotated
// members (same line and line-above), type aliases, map-returning methods,
// and map locals/parameters. The identical unannotated member outside
// src/serve is out of scope (clean.cc has none, covered above).
TEST(LintTest, BoundedContainersRuleAcceptsAnnotatedAndNonMemberShapes) {
  const LintRun run = RunLint(Fixture("src/serve/bounded_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// intrinsics-only-in-simd is path-scoped: the byte-identical vector code
// passes inside src/nn/simd/ and fails one directory up (covered by the
// parameterized case above).
TEST(LintTest, IntrinsicsAreSanctionedInsideSimdDirectory) {
  const LintRun run = RunLint(Fixture("src/nn/simd/intrinsics_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

// owned-nonlinearities passes the owned kernels, allow()-granted libm calls
// and libm functions it does not own, and counts all four libm spellings in
// the violating fixture.
TEST(LintTest, OwnedNonlinearitiesAcceptsOwnedKernelsAndGrantedCalls) {
  const LintRun ok = RunLint(Fixture("src/core/nonlinearity_ok.cc"));
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_TRUE(ok.output.empty()) << ok.output;
  const LintRun bad = RunLint(Fixture("src/nn/nonlinearity_violation.cc"));
  for (const char* call : {"`exp`", "`tanh`", "`expf`", "`tanhf`"}) {
    EXPECT_NE(bad.output.find(call), std::string::npos) << call << " in:\n" << bad.output;
  }
}

// The flow-aware passing fixtures: declared hierarchy respected, balanced
// Charge/Release on every path, blocking calls only outside lock scopes,
// exhaustive (or defaulted) switches.
TEST(LintTest, ConsistentLockHierarchyPasses) {
  const LintRun run = RunLint(Fixture("src/serve/lock_graph_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(LintTest, BoundLeasesPass) {
  const LintRun run = RunLint(Fixture("resource_pairing_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintTest, BlockingOutsideLockScopePasses) {
  const LintRun run = RunLint(Fixture("blocking_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintTest, ExhaustiveAndDefaultedSwitchesPass) {
  const LintRun run = RunLint(Fixture("enum_switch_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintTest, AllowlistFileGrantsWholeFile) {
  const LintRun without = RunLint(Fixture("rand_violation.cc"));
  EXPECT_EQ(without.exit_code, 1);
  const LintRun with = RunLint("--allowlist " + Fixture("allowlist_rand.txt") + " " +
                               Fixture("rand_violation.cc"));
  EXPECT_EQ(with.exit_code, 0) << with.output;
}

// Satellite: escape hygiene. An allowlist entry that matches no diagnostic
// is itself a failure — dead suppressions hide new regressions.
TEST(LintTest, StaleAllowlistEntryFails) {
  const LintRun run = RunLint("--allowlist " + Fixture("allowlist_stale.txt") + " " +
                              Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[stale-escape]"), std::string::npos) << run.output;
  // The diagnostic points at the allowlist line, not the analyzed file.
  EXPECT_NE(run.output.find("allowlist_stale.txt:"), std::string::npos) << run.output;
}

// The lock-graph DOT export (feeds DESIGN.md §7) names the declared nodes
// and the acquired-before edge.
TEST(LintTest, DotExportNamesHierarchyNodesAndEdges) {
  const LintRun run = RunLint("--dot - " + Fixture("src/serve/lock_graph_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("digraph deeprest_locks"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("GraphCoordinator::sweep_mu_"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("GraphCoordinator::detail_mu_"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("->"), std::string::npos) << run.output;
}

TEST(LintTest, MultipleFilesAggregateViolations) {
  const LintRun run =
      RunLint(Fixture("clean.cc") + " " + Fixture("detach_violation.cc"));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("[no-detached-threads]"), std::string::npos) << run.output;
}

TEST(LintTest, MissingFileIsUsageError) {
  const LintRun run = RunLint(Fixture("does_not_exist.cc"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

// The rule the whole PR hangs on: the real tree must stay lint-clean with
// the checked-in allowlist — same invocation as the `lint_src` ctest.
TEST(LintTest, RealSourceTreeIsClean) {
  const LintRun run = RunLint(std::string("--root ") + DEEPREST_SOURCE_ROOT +
                              " --allowlist " + DEEPREST_SOURCE_ROOT +
                              "/tools/lint/allowlist.txt");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace

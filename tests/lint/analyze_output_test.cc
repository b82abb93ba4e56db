// Output-contract tests for deeprest_analyze: every text diagnostic must be
// a clickable `path:line: [rule] message` (CI log conventions and editors
// both key on that shape), the GitHub annotation format must carry
// file/line/title, and the SARIF export must survive a real JSON parse —
// a minimal recursive-descent parser here, so a stray unescaped quote or
// trailing comma in the renderer fails the build, not the CI upload.
//
// DEEPREST_LINT_BIN and DEEPREST_LINT_FIXTURES are injected by CMake.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
  run.exit_code = status >= 256 ? status / 256 : status;
  return run;
}

std::string Fixture(const std::string& name) {
  return std::string(DEEPREST_LINT_FIXTURES) + "/" + name;
}

// A violating fixture per rule class — exercises every renderer path.
std::string ViolatingFixtures() {
  return Fixture("rand_violation.cc") + " " + Fixture("detach_violation.cc") + " " +
         Fixture("resource_discarded_lease_violation.cc") + " " +
         Fixture("blocking_violation.cc") + " " + Fixture("enum_switch_violation.cc") +
         " " + Fixture("src/serve/lock_order_violation.cc");
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char ch : text) {
    if (ch == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) {
    lines.push_back(current);
  }
  return lines;
}

// --- Minimal JSON parser (objects, arrays, strings, numbers, literals) ---
// Just enough to round-trip the SARIF export; any syntax error is a test
// failure. Values are kept as a tagged tree so tests can walk runs/results.

struct JsonValue {
  enum Kind { kObject, kArray, kString, kNumber, kBool, kNull } kind = kNull;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
  std::string string_value;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> Parse() {
    std::shared_ptr<JsonValue> value = ParseValue();
    SkipSpace();
    if (!ok_ || pos_ != text_.size()) {
      return nullptr;  // trailing garbage or parse error
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }

  std::shared_ptr<JsonValue> Fail() {
    ok_ = false;
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail();
    }
    const char ch = text_[pos_];
    if (ch == '{') {
      return ParseObject();
    }
    if (ch == '[') {
      return ParseArray();
    }
    if (ch == '"') {
      auto value = std::make_shared<JsonValue>();
      value->kind = JsonValue::kString;
      if (!ParseString(&value->string_value)) {
        return Fail();
      }
      return value;
    }
    if (ch == '-' || std::isdigit(static_cast<unsigned char>(ch))) {
      auto value = std::make_shared<JsonValue>();
      value->kind = JsonValue::kNumber;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E')) {
        value->string_value += text_[pos_++];
      }
      return value;
    }
    for (const char* literal : {"true", "false", "null"}) {
      const size_t len = std::string(literal).size();
      if (text_.compare(pos_, len, literal) == 0) {
        pos_ += len;
        auto value = std::make_shared<JsonValue>();
        value->kind = std::string(literal) == "null" ? JsonValue::kNull : JsonValue::kBool;
        value->string_value = literal;
        return value;
      }
    }
    return Fail();
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) {
            return false;
          }
          pos_ += 4;  // keep escaped form; tests only compare raw substrings
          *out += '?';
        } else if (esc == 'n') {
          *out += '\n';
        } else if (esc == 't') {
          *out += '\t';
        } else {
          *out += esc;  // \" \\ \/ \b \f \r collapse to the char itself
        }
        ++pos_;
      } else {
        *out += text_[pos_++];
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  std::shared_ptr<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return Fail();
    }
    auto value = std::make_shared<JsonValue>();
    value->kind = JsonValue::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      std::string key;
      if (!ParseString(&key) || !Consume(':')) {
        return Fail();
      }
      std::shared_ptr<JsonValue> member = ParseValue();
      if (!ok_) {
        return Fail();
      }
      value->object[key] = member;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume('}')) {
        return Fail();
      }
      return value;
    }
  }

  std::shared_ptr<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return Fail();
    }
    auto value = std::make_shared<JsonValue>();
    value->kind = JsonValue::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      std::shared_ptr<JsonValue> element = ParseValue();
      if (!ok_) {
        return Fail();
      }
      value->array.push_back(element);
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume(']')) {
        return Fail();
      }
      return value;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Property: every text diagnostic line is `path:line: [rule] message` with a
// positive line number and a non-empty rule and message. The trailing
// `deeprest_analyze: N violation(s)` summary is the only other line shape.
TEST(AnalyzeOutputTest, EveryTextDiagnosticCarriesFileLineAndRule) {
  const LintRun run = RunLint(ViolatingFixtures());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  size_t diagnostics = 0;
  for (const std::string& line : SplitLines(run.output)) {
    if (line.empty() || line.rfind("deeprest_analyze:", 0) == 0) {
      continue;
    }
    ++diagnostics;
    // path:line:
    const size_t bracket = line.find(" [");
    ASSERT_NE(bracket, std::string::npos) << line;
    const std::string location = line.substr(0, bracket);
    ASSERT_GE(location.size(), 4u) << line;
    EXPECT_EQ(location.back(), ':') << line;
    const size_t line_colon = location.rfind(':', location.size() - 2);
    ASSERT_NE(line_colon, std::string::npos) << line;
    const std::string line_number =
        location.substr(line_colon + 1, location.size() - line_colon - 2);
    ASSERT_FALSE(line_number.empty()) << line;
    for (char ch : line_number) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ch))) << line;
    }
    EXPECT_GT(std::stoi(line_number), 0) << line;
    // [rule] message
    const size_t close = line.find(']', bracket);
    ASSERT_NE(close, std::string::npos) << line;
    const std::string rule = line.substr(bracket + 2, close - bracket - 2);
    EXPECT_FALSE(rule.empty()) << line;
    for (char ch : rule) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(ch)) || ch == '-') << line;
    }
    EXPECT_GT(line.size(), close + 2) << "empty message: " << line;
  }
  EXPECT_GE(diagnostics, 6u) << run.output;
}

// Property: the SARIF export parses as JSON, and its run carries exactly one
// result per text diagnostic, each with ruleId, message text, and a
// physical location whose startLine is positive.
TEST(AnalyzeOutputTest, SarifRoundTripsThroughJsonParse) {
  const LintRun text_run = RunLint(ViolatingFixtures());
  size_t text_diagnostics = 0;
  for (const std::string& line : SplitLines(text_run.output)) {
    if (!line.empty() && line.rfind("deeprest_analyze:", 0) != 0) {
      ++text_diagnostics;
    }
  }

  const LintRun sarif_run = RunLint("--format=sarif " + ViolatingFixtures());
  EXPECT_EQ(sarif_run.exit_code, 1);
  JsonParser parser(sarif_run.output);
  std::shared_ptr<JsonValue> root = parser.Parse();
  ASSERT_NE(root, nullptr) << "SARIF is not valid JSON:\n" << sarif_run.output;
  ASSERT_EQ(root->kind, JsonValue::kObject);
  ASSERT_TRUE(root->object.count("version"));
  EXPECT_EQ(root->object["version"]->string_value, "2.1.0");

  ASSERT_TRUE(root->object.count("runs"));
  ASSERT_EQ(root->object["runs"]->kind, JsonValue::kArray);
  ASSERT_EQ(root->object["runs"]->array.size(), 1u);
  std::shared_ptr<JsonValue> run = root->object["runs"]->array[0];

  ASSERT_TRUE(run->object.count("tool"));
  std::shared_ptr<JsonValue> driver = run->object["tool"]->object["driver"];
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->object["name"]->string_value, "deeprest_analyze");

  ASSERT_TRUE(run->object.count("results"));
  const std::vector<std::shared_ptr<JsonValue>>& results = run->object["results"]->array;
  EXPECT_EQ(results.size(), text_diagnostics) << sarif_run.output;
  for (const std::shared_ptr<JsonValue>& result : results) {
    ASSERT_EQ(result->kind, JsonValue::kObject);
    ASSERT_TRUE(result->object.count("ruleId"));
    EXPECT_FALSE(result->object["ruleId"]->string_value.empty());
    ASSERT_TRUE(result->object.count("message"));
    EXPECT_FALSE(result->object["message"]->object["text"]->string_value.empty());
    ASSERT_TRUE(result->object.count("locations"));
    ASSERT_EQ(result->object["locations"]->array.size(), 1u);
    std::shared_ptr<JsonValue> physical =
        result->object["locations"]->array[0]->object["physicalLocation"];
    ASSERT_NE(physical, nullptr);
    EXPECT_FALSE(physical->object["artifactLocation"]
                     ->object["uri"]
                     ->string_value.empty());
    const std::string start_line =
        physical->object["region"]->object["startLine"]->string_value;
    EXPECT_GT(std::stoi(start_line), 0);
  }
}

// Property: GitHub annotations carry file=, line= and title= so the CI
// runner can attach them to the diff view.
TEST(AnalyzeOutputTest, GithubAnnotationsCarryFileLineAndTitle) {
  const LintRun run = RunLint("--format=github " + Fixture("rand_violation.cc"));
  EXPECT_EQ(run.exit_code, 1);
  bool saw_annotation = false;
  for (const std::string& line : SplitLines(run.output)) {
    if (line.rfind("::error ", 0) != 0) {
      continue;
    }
    saw_annotation = true;
    EXPECT_NE(line.find("file="), std::string::npos) << line;
    EXPECT_NE(line.find("line="), std::string::npos) << line;
    EXPECT_NE(line.find("title="), std::string::npos) << line;
    EXPECT_NE(line.find("::", 8), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_annotation) << run.output;
}

}  // namespace

// A small JSON reader of the benchmark's own. The output checks parse what
// sash prints with this rather than with sash's parser, so a bug in the code
// under test cannot hide itself from the check.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;  // kString: the decoded string; kNumber: the literal.
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Get(std::string_view key) const;
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
};

// Parses one complete document; nullopt on any syntax error or trailing
// bytes.
std::optional<Json> ParseJson(std::string_view text);

// Canonical re-serialization with the wall-clock fields ("micros",
// "total_micros") set to 0, so two reports of one analysis made at different
// times compare equal exactly when everything else is equal.
std::string NormalizedReport(const Json& value);

// The finding codes of a sash-analysis-v1 report, in report order.
std::vector<std::string> FindingCodes(const Json& report);

// Appends `s` as a JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_

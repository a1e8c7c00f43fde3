#include "util/strings.h"

#include <cctype>
#include <cstdint>
#include <cstdio>

namespace sash {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitLines(std::string_view s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < s.size()) {
    size_t pos = s.find('\n', start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

namespace {
bool IsSpaceChar(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
}  // namespace

std::string_view TrimLeft(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && IsSpaceChar(s[i])) {
    ++i;
  }
  return s.substr(i);
}

std::string_view TrimRight(std::string_view s) {
  size_t n = s.size();
  while (n > 0 && IsSpaceChar(s[n - 1])) {
    --n;
  }
  return s.substr(0, n);
}

std::string_view Trim(std::string_view s) { return TrimRight(TrimLeft(s)); }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string EscapeForDisplay(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '\\' || c == '\'') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20 || c == 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) {
    return std::string(s);
  }
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out += s.substr(start);
      break;
    }
    out += s.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
  return out;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  bool negative = false;
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    negative = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) {
    return false;
  }
  uint64_t magnitude = 0;
  // Largest representable magnitude: 2^63 for negative values, 2^63-1 else.
  const uint64_t limit =
      negative ? (1ULL << 63) : static_cast<uint64_t>(INT64_MAX);
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (magnitude > (limit - digit) / 10) {
      return false;  // Would overflow.
    }
    magnitude = magnitude * 10 + digit;
  }
  // Negate in unsigned arithmetic: -2^63 has no positive int64_t twin.
  *out = negative ? static_cast<int64_t>(0 - magnitude) : static_cast<int64_t>(magnitude);
  return true;
}

}  // namespace sash

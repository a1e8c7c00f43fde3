#include "json.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Document() {
    Json value;
    if (!Value(&value, 0)) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) {
      return false;
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object(out, depth);
      case '[':
        return Array(out, depth);
      case '"':
        out->kind = Json::Kind::kString;
        return String(&out->text);
      case 't':
        out->kind = Json::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = Json::Kind::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number(out);
    }
  }

  bool Object(Json* out, int depth) {
    out->kind = Json::Kind::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String(&key)) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      Json value;
      if (!Value(&value, depth + 1)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array(Json* out, int depth) {
    out->kind = Json::Kind::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json value;
      if (!Value(&value, depth + 1)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool Hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    *out = v;
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          if (!Hex4(&code)) {
            return false;
          }
          if (code >= 0xD800 && code < 0xDC00 && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            if (!Hex4(&low) || low < 0xDC00 || low > 0xDFFF) {
              return false;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Number(Json* out) {
    const size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      digits = digits || (text_[pos_] >= '0' && text_[pos_] <= '9');
      ++pos_;
    }
    if (!digits) {
      return false;
    }
    out->kind = Json::Kind::kNumber;
    out->text = std::string(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    out->number = std::strtod(out->text.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void Serialize(const Json& v, bool zero_number, std::string* out) {
  switch (v.kind) {
    case Json::Kind::kNull:
      *out += "null";
      return;
    case Json::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case Json::Kind::kNumber:
      *out += zero_number ? "0" : v.text;
      return;
    case Json::Kind::kString:
      AppendJsonString(out, v.text);
      return;
    case Json::Kind::kArray:
      out->push_back('[');
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        Serialize(v.items[i], false, out);
      }
      out->push_back(']');
      return;
    case Json::Kind::kObject:
      out->push_back('{');
      for (size_t i = 0; i < v.members.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        const auto& [key, value] = v.members[i];
        AppendJsonString(out, key);
        out->push_back(':');
        Serialize(value, key == "micros" || key == "total_micros", out);
      }
      out->push_back('}');
      return;
  }
}

}  // namespace

const Json* Json::Get(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::optional<Json> ParseJson(std::string_view text) { return Parser(text).Document(); }

std::string NormalizedReport(const Json& value) {
  std::string out;
  Serialize(value, false, &out);
  return out;
}

std::vector<std::string> FindingCodes(const Json& report) {
  std::vector<std::string> codes;
  const Json* findings = report.Get("findings");
  if (findings == nullptr || !findings->IsArray()) {
    return codes;
  }
  for (const Json& f : findings->items) {
    const Json* code = f.Get("code");
    if (code != nullptr && code->kind == Json::Kind::kString) {
      codes.push_back(code->text);
    }
  }
  return codes;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace perfbench

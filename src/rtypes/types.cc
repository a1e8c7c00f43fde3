#include "rtypes/types.h"

#include "util/strings.h"

namespace sash::rtypes {

TypeExpr TypeExpr::Var() {
  TypeExpr e;
  e.kind_ = Kind::kVar;
  return e;
}

TypeExpr TypeExpr::Lang(regex::Regex lang) {
  TypeExpr e;
  e.kind_ = Kind::kLang;
  e.lang_ = std::move(lang);
  return e;
}

TypeExpr TypeExpr::Concat(std::vector<TypeExpr> parts) {
  TypeExpr e;
  e.kind_ = Kind::kConcat;
  e.parts_ = std::move(parts);
  return e;
}

TypeExpr TypeExpr::Prefix(std::string text) { return Lang(regex::Regex::Literal(text)); }

bool TypeExpr::UsesVar() const {
  switch (kind_) {
    case Kind::kVar:
      return true;
    case Kind::kLang:
      return false;
    case Kind::kConcat:
      for (const TypeExpr& p : parts_) {
        if (p.UsesVar()) {
          return true;
        }
      }
      return false;
  }
  return false;
}

regex::Regex TypeExpr::Substitute(const regex::Regex& alpha) const {
  switch (kind_) {
    case Kind::kVar:
      return alpha;
    case Kind::kLang:
      return *lang_;
    case Kind::kConcat: {
      regex::Regex out = regex::Regex::Epsilon();
      for (const TypeExpr& p : parts_) {
        out = out.Concat(p.Substitute(alpha));
      }
      return out;
    }
  }
  return regex::Regex::Nothing();
}

std::string TypeExpr::ToString() const {
  switch (kind_) {
    case Kind::kVar:
      return "α";
    case Kind::kLang:
      return lang_->pattern();
    case Kind::kConcat: {
      std::string out;
      for (const TypeExpr& p : parts_) {
        out += p.ToString();
      }
      return out;
    }
  }
  return "?";
}

std::string CommandType::ToString() const {
  std::string out;
  if (polymorphic) {
    out += "∀α";
    if (bound.has_value()) {
      out += " ⊆ " + bound->pattern();
    }
    out += ". ";
  }
  out += input.ToString();
  out += " → ";
  if (intersect_filter.has_value()) {
    out += "(" + input.ToString() + " ∩ " + intersect_filter->pattern() + ")";
  } else {
    out += output.ToString();
  }
  return out;
}

ApplyResult Apply(const CommandType& type, const regex::Regex& input) {
  ApplyResult result;

  if (input.IsEmptyLanguage()) {
    // Dead streams stay dead regardless of the command.
    result.ok = true;
    result.output = regex::Regex::Nothing();
    result.output_empty = true;
    return result;
  }

  if (type.intersect_filter.has_value()) {
    regex::Regex out = input.Intersect(*type.intersect_filter);
    result.ok = true;
    result.output_empty = out.IsEmptyLanguage();
    result.output = std::move(out);
    return result;
  }

  regex::Regex alpha = regex::Regex::AnyLine();
  if (type.polymorphic && type.input.kind() == TypeExpr::Kind::kVar) {
    // Inference: α := the concrete input language.
    alpha = input;
    if (type.bound.has_value() && !alpha.IncludedIn(*type.bound)) {
      result.error = "type error: " + alpha.pattern() + " ⊄ " + type.bound->pattern();
      return result;
    }
  } else {
    // Subsumption against a fixed input language.
    regex::Regex expected = type.input.Substitute(alpha);
    if (!input.IncludedIn(expected)) {
      result.error = "type error: input " + input.pattern() + " ⊄ " + expected.pattern();
      return result;
    }
  }
  regex::Regex out = type.output.Substitute(alpha);
  result.ok = true;
  result.output_empty = out.IsEmptyLanguage();
  result.output = std::move(out);
  return result;
}

void TypeLibrary::Define(std::string name, regex::Regex lang) {
  for (auto& [n, l] : types_) {
    if (n == name) {
      l = std::move(lang);
      return;
    }
  }
  types_.emplace_back(std::move(name), std::move(lang));
}

const regex::Regex* TypeLibrary::Find(std::string_view name) const {
  for (const auto& [n, l] : types_) {
    if (n == name) {
      return &l;
    }
  }
  return nullptr;
}

std::vector<std::string> TypeLibrary::Names() const {
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [n, l] : types_) {
    out.push_back(n);
  }
  return out;
}

std::optional<regex::Regex> TypeLibrary::Resolve(std::string_view spelling) const {
  spelling = Trim(spelling);
  if (spelling.size() >= 2 && spelling.front() == '/' && spelling.back() == '/') {
    std::string err;
    return regex::Regex::FromPattern(spelling.substr(1, spelling.size() - 2), &err);
  }
  const regex::Regex* named = Find(spelling);
  if (named != nullptr) {
    return *named;
  }
  return std::nullopt;
}

namespace {

TypeLibrary BuildDefault() {
  TypeLibrary lib;
  auto def = [&lib](const char* name, const char* pattern) {
    std::optional<regex::Regex> r = regex::Regex::FromPattern(pattern);
    if (r.has_value()) {
      lib.Define(name, std::move(*r));
    }
  };
  lib.Define("any", regex::Regex::AnyLine());
  lib.Define("none", regex::Regex::Nothing());
  lib.Define("empty", regex::Regex::Epsilon());
  def("line", ".+");
  def("word", "\\S+");
  def("number", "-?\\d+");
  def("hexline", "[0-9a-f]+");
  def("hex0x", "0x[0-9a-f]+");
  def("path", "/?([^/\\n]*/)*[^/\\n]+");
  def("abspath", "/([^/\\n]+/)*[^/\\n]*");
  def("url", "(https?|ftp)://[^\\s/$.?#]\\S*");
  def("tsvline", "[^\\t\\n]*(\\t[^\\t\\n]*)*");
  def("longlist", "[-dlbcps][-rwxsStT]{9} +\\d+ +\\w+ +\\w+ +\\d+ .*");
  def("lsbline", "(Distributor ID|Description|Release|Codename):\\t.*");
  return lib;
}

}  // namespace

const TypeLibrary& TypeLibrary::Default() {
  static const TypeLibrary kDefault = BuildDefault();
  return kDefault;
}

std::string TypeOf(const TypeLibrary& lib, const regex::Regex& lang) {
  // Exact match first.
  for (const std::string& name : lib.Names()) {
    const regex::Regex* l = lib.Find(name);
    if (l != nullptr && name != "any" && lang.EquivalentTo(*l)) {
      return name;
    }
  }
  // Then the most specific superset: a containing type that no other
  // containing type is strictly below.
  std::vector<std::string> candidates;
  for (const std::string& name : lib.Names()) {
    const regex::Regex* l = lib.Find(name);
    if (l != nullptr && name != "any" && name != "none" && lang.IncludedIn(*l)) {
      candidates.push_back(name);
    }
  }
  for (const std::string& name : candidates) {
    const regex::Regex* l = lib.Find(name);
    bool minimal = true;
    for (const std::string& other : candidates) {
      if (other == name) {
        continue;
      }
      const regex::Regex* ol = lib.Find(other);
      if (ol != nullptr && ol->IncludedIn(*l) && !l->IncludedIn(*ol)) {
        minimal = false;
        break;
      }
    }
    if (minimal) {
      return name;
    }
  }
  return lang.IsEmptyLanguage() ? "none" : "any";
}

}  // namespace sash::rtypes

#include "symex/value.h"

#include "util/hash.h"
#include "util/strings.h"

namespace sash::symex {

SymValue::SymValue() : concrete_("") {}

SymValue SymValue::Concrete(std::string value) {
  SymValue v;
  v.concrete_ = std::move(value);
  return v;
}

SymValue SymValue::Language(regex::Regex lang) {
  SymValue v;
  v.concrete_.reset();
  v.lang_ = std::move(lang);
  return v;
}

SymValue SymValue::Unknown() {
  using regex::CharSet;
  using regex::MakeChars;
  using regex::MakeStar;
  static const regex::Regex kAny = regex::Regex::FromAst(MakeStar(MakeChars(CharSet::All())));
  return Language(kAny);
}

SymValue SymValue::UnknownLine() { return Language(regex::Regex::AnyLine()); }

SymValue SymValue::AbsolutePath() {
  static const regex::Regex kPath = *regex::Regex::FromPattern("/([^/\\n]+/)*[^/\\n]*");
  return Language(kPath);
}

SymValue SymValue::UnknownNumber() {
  static const regex::Regex kNum = *regex::Regex::FromPattern("-?\\d+");
  return Language(kNum);
}

SymValue SymValue::Nothing() { return Language(regex::Regex::Nothing()); }

const regex::Regex& SymValue::lang() const {
  if (!lang_.has_value()) {
    lang_ = regex::Regex::Literal(*concrete_);
  }
  return *lang_;
}

bool SymValue::CanBeEmpty() const {
  if (is_concrete()) {
    return concrete_->empty();
  }
  return lang().Matches("");
}

bool SymValue::MustBeEmpty() const {
  if (is_concrete()) {
    return concrete_->empty();
  }
  return lang().IncludedIn(regex::Regex::Epsilon());
}

bool SymValue::CanEqual(std::string_view s) const {
  if (is_concrete()) {
    return *concrete_ == s;
  }
  return lang().Matches(s);
}

bool SymValue::MustEqual(std::string_view s) const {
  if (is_concrete()) {
    return *concrete_ == s;
  }
  return !IsNothing() && lang().IncludedIn(regex::Regex::Literal(s));
}

bool SymValue::IsNothing() const {
  if (is_concrete()) {
    return false;
  }
  return lang().IsEmptyLanguage();
}

bool SymValue::CanBeIn(const regex::Regex& language) const {
  if (is_concrete()) {
    return language.Matches(*concrete_);
  }
  return !lang().Intersect(language).IsEmptyLanguage();
}

bool SymValue::MustBeIn(const regex::Regex& language) const {
  if (is_concrete()) {
    return language.Matches(*concrete_);
  }
  return !IsNothing() && lang().IncludedIn(language);
}

SymValue SymValue::Append(const SymValue& other) const {
  if (is_concrete() && other.is_concrete()) {
    return Concrete(*concrete_ + *other.concrete_);
  }
  return Language(lang().Concat(other.lang()));
}

SymValue SymValue::UnionWith(const SymValue& other) const {
  if (is_concrete() && other.is_concrete() && *concrete_ == *other.concrete_) {
    return *this;
  }
  return Language(lang().Union(other.lang()));
}

SymValue SymValue::RestrictTo(const regex::Regex& language) const {
  if (is_concrete()) {
    return language.Matches(*concrete_) ? *this : Nothing();
  }
  return Language(lang().Intersect(language));
}

SymValue SymValue::RestrictNotEqual(std::string_view s) const {
  if (is_concrete()) {
    return *concrete_ == s ? Nothing() : *this;
  }
  return Language(lang().Intersect(regex::Regex::Literal(s).Complement()));
}

SymValue SymValue::RestrictNonEmpty() const { return RestrictNotEqual(""); }

SymValue SymValue::RestrictEmpty() const { return RestrictTo(regex::Regex::Epsilon()); }

std::optional<std::string> SymValue::Witness() const {
  if (is_concrete()) {
    return *concrete_;
  }
  return lang().Witness();
}

std::string SymValue::Describe() const {
  if (describe_cache_ != nullptr) {
    return *describe_cache_;
  }
  std::string out;
  if (is_concrete()) {
    out = "'" + EscapeForDisplay(*concrete_) + "'";
  } else {
    // Derived languages accumulate unreadable synthesized patterns; fall back
    // to a few sample members, which is what a user needs to see anyway.
    const std::string& pattern = lang().pattern();
    if (pattern.size() <= 48) {
      out = "⟨" + pattern + "⟩";
    } else {
      std::vector<std::string> samples = lang().Samples(3);
      if (samples.empty()) {
        out = "⟨unsatisfiable⟩";
      } else {
        out = "⟨strings like";
        for (const std::string& s : samples) {
          out += " '" + EscapeForDisplay(s) + "'";
        }
        out += " ...⟩";
      }
    }
  }
  describe_cache_ = std::make_shared<const std::string>(out);
  return out;
}

uint64_t SymValue::Digest() const {
  if (digest_ != 0) {
    return digest_;
  }
  // Domain tags keep the two forms from ever colliding structurally.
  uint64_t h = is_concrete()
                   ? util::Fnv1a(*concrete_, 0x636f6e633a000000ull)  // "conc:"
                   : util::Fnv1a(lang().pattern(), 0x6c616e673a000000ull);  // "lang:"
  if (h == 0) {
    h = 1;  // Reserve 0 as the "not computed" sentinel.
  }
  digest_ = h;
  return h;
}

}  // namespace sash::symex

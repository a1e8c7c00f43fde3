// Regular types (§3-§4): a new type system for string shapes centered on
// regular languages. A stream's type describes the language of each of its
// lines; subtyping is language inclusion; command types are functions from
// line types to line types, optionally polymorphic:
//
//   grep '^desc'  ::  .* → desc.*
//   sed 's/^/0x/' ::  ∀α. α → 0xα
//   sort -g       ::  ∀α ⊆ numericish. α → α
#ifndef SASH_RTYPES_TYPES_H_
#define SASH_RTYPES_TYPES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "regex/regex.h"

namespace sash::rtypes {

// A type expression over at most one type variable α.
class TypeExpr {
 public:
  enum class Kind { kVar, kLang, kConcat };

  static TypeExpr Var();                       // α
  static TypeExpr Lang(regex::Regex lang);     // A fixed language.
  static TypeExpr Concat(std::vector<TypeExpr> parts);  // e.g. "0x" · α.
  static TypeExpr Prefix(std::string text);    // Literal text (helper).

  Kind kind() const { return kind_; }
  const regex::Regex& lang() const { return *lang_; }
  const std::vector<TypeExpr>& parts() const { return parts_; }

  bool UsesVar() const;

  // Substitutes `alpha` for the variable, yielding a concrete language.
  regex::Regex Substitute(const regex::Regex& alpha) const;

  std::string ToString() const;  // "α", "0xα", "desc.*", ...

 private:
  TypeExpr() = default;
  Kind kind_ = Kind::kVar;
  std::optional<regex::Regex> lang_;
  std::vector<TypeExpr> parts_;
};

// A (possibly polymorphic) command type: ∀α [⊆ bound]. input → output.
// Monomorphic types simply do not mention α.
struct CommandType {
  bool polymorphic = false;
  std::optional<regex::Regex> bound;  // Constraint α ⊆ bound.
  TypeExpr input = TypeExpr::Lang(regex::Regex::AnyLine());
  TypeExpr output = TypeExpr::Lang(regex::Regex::AnyLine());

  // Special composition rule used by filters whose output is the matching
  // subset of the input (grep): output = input ∩ `filter`. When set, `output`
  // is ignored during application.
  std::optional<regex::Regex> intersect_filter;

  std::string ToString() const;  // "∀α ⊆ B. α → 0xα" / ".* → desc.*".
};

// Applying a command type to a concrete input line-language.
struct ApplyResult {
  bool ok = false;
  std::string error;                   // Type error description.
  std::optional<regex::Regex> output;  // Output line-language when ok.
  bool output_empty = false;           // The output language is empty.
};

// Checks input against the type and computes the output language:
//  - polymorphic with input α: α := input; require α ⊆ bound when given.
//  - monomorphic: require input ⊆ L(input) (subsumption), output as declared.
//  - intersect_filter: output = input ∩ filter.
// An empty input language propagates to an empty output (dead stream).
ApplyResult Apply(const CommandType& type, const regex::Regex& input);

// The extensible library of descriptive types (§4 "ergonomic annotations"):
// `any` for .*, `url` for inputs to curl, `longlist` for ls -l output, etc.
class TypeLibrary {
 public:
  // Registers (or replaces) a named line type.
  void Define(std::string name, regex::Regex lang);
  const regex::Regex* Find(std::string_view name) const;
  std::vector<std::string> Names() const;

  // Resolves a type spelling: a library name or an inline /pattern/ regex.
  std::optional<regex::Regex> Resolve(std::string_view spelling) const;

  // Built-in descriptive types: any, none, empty, line, word, number, hexline,
  // path, abspath, url, tsvline, longlist, lsbline. Built once, on first use
  // (its regexes cost a warm cache hit nothing until something types a
  // stream); callers that add definitions copy it.
  static const TypeLibrary& Default();

 private:
  std::vector<std::pair<std::string, regex::Regex>> types_;
};

// typeOf introspection (§4): the most specific library name whose language
// equals (or, failing that, the first that contains) the given language.
std::string TypeOf(const TypeLibrary& lib, const regex::Regex& lang);

}  // namespace sash::rtypes

#endif  // SASH_RTYPES_TYPES_H_

// Symbolic string values. The engine follows the paper's §3 recipe: variable
// contents are tracked as constraints in a "well-understood formalism" —
// regular languages. A SymValue is either one concrete string or a regular
// language of possible strings; all expansion operators are defined over
// both, over-approximating where POSIX semantics outrun regular languages.
#ifndef SASH_SYMEX_VALUE_H_
#define SASH_SYMEX_VALUE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "regex/regex.h"

namespace sash::symex {

class SymValue {
 public:
  // The empty string (the default value).
  SymValue();

  static SymValue Concrete(std::string value);
  static SymValue Language(regex::Regex lang);
  // Any string over any bytes (including newlines).
  static SymValue Unknown();
  // Any single line (no newline) — the default for opaque command output.
  static SymValue UnknownLine();
  // Canonical absolute path language (the paper's /?([^/]*/)*[^/]+ shape,
  // anchored absolute): used for $PWD and resolved directories.
  static SymValue AbsolutePath();
  // An integer literal language.
  static SymValue UnknownNumber();
  // The union of no strings (unsatisfiable value — used to kill branches).
  static SymValue Nothing();

  bool is_concrete() const { return concrete_.has_value(); }
  const std::string& concrete() const { return *concrete_; }
  const regex::Regex& lang() const;  // Valid for both forms (lazily built).

  // --- queries ---
  bool CanBeEmpty() const;
  bool MustBeEmpty() const;
  bool CanEqual(std::string_view s) const;
  bool MustEqual(std::string_view s) const;
  bool IsNothing() const;  // Empty language: no possible value.
  // Can / must the value be a member of `language`?
  bool CanBeIn(const regex::Regex& language) const;
  bool MustBeIn(const regex::Regex& language) const;

  // --- combinators ---
  SymValue Append(const SymValue& other) const;   // Concatenation.
  SymValue UnionWith(const SymValue& other) const;
  // Refinements (returns Nothing() when unsatisfiable).
  SymValue RestrictTo(const regex::Regex& language) const;     // ∩ language.
  SymValue RestrictNotEqual(std::string_view s) const;         // minus {s}.
  SymValue RestrictNonEmpty() const;                           // minus {""}.
  SymValue RestrictEmpty() const;                              // ∩ {""}.

  // A shortest concrete member, if the value is satisfiable.
  std::optional<std::string> Witness() const;

  // "'text'" for concrete values, "⟨pattern⟩" for languages.
  std::string Describe() const;

  // 64-bit content digest, domain-separated between the concrete and
  // language forms (concrete "a" never equals language /a/). For languages
  // it hashes the display pattern — a finer key than structural language
  // equality, which is exactly what the merge digest needs (states it calls
  // equal must render identical reports). Computed once, cached; copies of
  // an undigested value recompute (cheap: one FNV pass).
  uint64_t Digest() const;

 private:
  std::optional<std::string> concrete_;
  mutable std::optional<regex::Regex> lang_;  // Cache for concrete values.
  mutable uint64_t digest_ = 0;               // 0 = not yet computed.
  // Describe() can be expensive for long synthesized patterns (it samples
  // the DFA); the result is immutable, so copies share it.
  mutable std::shared_ptr<const std::string> describe_cache_;
};

}  // namespace sash::symex

#endif  // SASH_SYMEX_VALUE_H_

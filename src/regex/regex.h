// Regex: the public facade of the regular-language engine. A Regex is an
// immutable regular *language* (not a searcher): Matches() tests whole-string
// membership, and the algebra (Intersect/Union/Complement/IncludedIn/...)
// operates on languages. This is exactly the notion the paper's regular types
// need — a type is a language of lines, and subtyping is language inclusion.
//
// Construction never throws: FromPattern returns std::nullopt on a malformed
// pattern and records the error for retrieval.
#ifndef SASH_REGEX_REGEX_H_
#define SASH_REGEX_REGEX_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "regex/ast.h"
#include "regex/dfa.h"

namespace sash::regex {

// Process-wide memoization of regular languages: compiled patterns
// (FromPattern, FromSearchPattern, glob.h's GlobLanguage), literals, the
// derived languages of Concat/Intersect/Complement, and IncludedIn verdicts.
// Every Regex carries a process-unique language id, shared by its copies;
// derived entries are keyed by (operation, operand ids), so the language
// built from the same operands is built once and every later build returns
// a copy of it, sharing its lazily-built minimal DFA. Ids are never reused
// and entries live for the process lifetime, so a key names one language
// (or one verdict) forever — even when an operand was an uncached temporary.
// Entries are immutable, so there is no invalidation: the cache only grows,
// capped at a fixed entry count after which new keys compute uncached.
// Hits() and Misses() count every lookup, derived ones included.
//
// Concurrency: lookups are lock-free. Entries live in append-only slabs and
// are reached through an open-addressed index published via release stores
// (the same idiom as the string interner), so parallel batch workers — whose
// working sets converge after the first few scripts — hit the cache without
// ever touching a mutex. Only a genuine insertion takes the writer lock, and
// insertion is rare by construction: it happens once per distinct key per
// process, right after the expensive parse or automaton construction.
class PatternCache {
 public:
  static uint64_t Hits();
  static uint64_t Misses();
  static size_t Size();
  static void Clear();
};

class Regex {
 public:
  // Parses an anchored (whole-string) pattern. Returns nullopt on error;
  // *error_out (if given) receives a description.
  static std::optional<Regex> FromPattern(std::string_view pattern,
                                          std::string* error_out = nullptr);

  // grep-style *search* semantics: the language of strings containing a match
  // of `pattern`. Honors ^/$ anchors: "^desc" -> desc.*, "x$" -> .*x, plain
  // "x" -> .*x.* .
  static std::optional<Regex> FromSearchPattern(std::string_view pattern,
                                                std::string* error_out = nullptr);

  // The language containing exactly `text`.
  static Regex Literal(std::string_view text);

  // ".*" — every string without a newline (the `any` line type).
  static Regex AnyLine();

  // The empty language and the empty-string language.
  static Regex Nothing();
  static Regex Epsilon();

  // Direct construction from an AST (used by type-level operations).
  static Regex FromAst(NodePtr node);

  // Whole-string membership.
  bool Matches(std::string_view input) const;

  // Language algebra. Results carry a synthesized display pattern.
  Regex Intersect(const Regex& other) const;
  Regex Union(const Regex& other) const;
  Regex Concat(const Regex& other) const;
  Regex Complement() const;
  Regex Star() const;

  bool IsEmptyLanguage() const;
  bool IsUniversal() const;
  bool IncludedIn(const Regex& other) const;
  bool EquivalentTo(const Regex& other) const;

  // Shortest member of the language, if any.
  std::optional<std::string> Witness() const;
  std::vector<std::string> Samples(size_t limit) const;

  // Display pattern (the source pattern, or a synthesized one for derived
  // languages — complements are shown as "!(p)" since they have no ERE form).
  const std::string& pattern() const { return pattern_; }

  const NodePtr& ast() const { return ast_; }  // Null for complement-derived.

  // The backing minimal DFA (built lazily, cached).
  const Dfa& dfa() const;

  size_t DfaStates() const { return static_cast<size_t>(dfa().NumStates()); }

 private:
  Regex(std::string pattern, NodePtr ast);
  Regex(std::string pattern, Dfa dfa);

  std::string pattern_;
  NodePtr ast_;  // May be null when the language only exists as a DFA.
  // Shared so copies of a Regex reuse one lazily-built DFA and one language
  // id (the key of the derived languages in PatternCache).
  struct LazyDfa;
  std::shared_ptr<LazyDfa> lazy_;
};

}  // namespace sash::regex

#endif  // SASH_REGEX_REGEX_H_

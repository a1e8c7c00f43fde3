// Brzozowski derivatives: a matcher that never builds an automaton. The
// regex and differential tests use it as an independent oracle for the DFA
// path (Regex::Matches).
#ifndef SASH_TESTS_DERIVATIVE_H_
#define SASH_TESTS_DERIVATIVE_H_

#include <string_view>

#include "regex/ast.h"

namespace sash::regex {

// ∂_c(node): the language of suffixes s such that c·s ∈ L(node).
NodePtr Derivative(const NodePtr& node, unsigned char c);

// Full-string match by iterated derivatives: s ∈ L(node) iff
// Nullable(∂_s(node)).
bool DerivativeMatch(const NodePtr& node, std::string_view input);

}  // namespace sash::regex

#endif  // SASH_TESTS_DERIVATIVE_H_

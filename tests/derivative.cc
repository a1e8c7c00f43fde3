#include "derivative.h"

namespace sash::regex {

NodePtr Derivative(const NodePtr& node, unsigned char c) {
  switch (node->kind) {
    case NodeKind::kEmpty:
    case NodeKind::kEpsilon:
      return MakeEmpty();
    case NodeKind::kChars:
      return node->chars.Contains(c) ? MakeEpsilon() : MakeEmpty();
    case NodeKind::kConcat: {
      // ∂_c(r1 r2...rn) = ∂_c(r1)·r2...rn  |  [r1 nullable] ∂_c(r2...rn)
      const NodePtr& head = node->children[0];
      std::vector<NodePtr> tail(node->children.begin() + 1, node->children.end());
      NodePtr tail_node = MakeConcat(std::vector<NodePtr>(tail));
      NodePtr left = MakeConcat2(Derivative(head, c), tail_node);
      if (Nullable(head)) {
        return MakeAlt2(std::move(left), Derivative(tail_node, c));
      }
      return left;
    }
    case NodeKind::kAlt: {
      std::vector<NodePtr> parts;
      parts.reserve(node->children.size());
      for (const NodePtr& child : node->children) {
        parts.push_back(Derivative(child, c));
      }
      return MakeAlt(std::move(parts));
    }
    case NodeKind::kStar:
      // ∂_c(r*) = ∂_c(r)·r*
      return MakeConcat2(Derivative(node->children[0], c), node);
  }
  return MakeEmpty();
}

bool DerivativeMatch(const NodePtr& node, std::string_view input) {
  NodePtr current = node;
  for (unsigned char c : input) {
    if (current->kind == NodeKind::kEmpty) {
      return false;
    }
    current = Derivative(current, c);
  }
  return Nullable(current);
}

}  // namespace sash::regex

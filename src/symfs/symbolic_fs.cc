#include "symfs/symbolic_fs.h"

#include <algorithm>

#include "fs/path.h"
#include "util/strings.h"

namespace sash::symfs {

PathKey PathKey::Concrete(std::string_view absolute_path) {
  PathKey k;
  k.base = "";
  k.rel = fs::NormalizePath(absolute_path);
  return k;
}

PathKey PathKey::VarRooted(std::string_view var, std::string_view suffix) {
  PathKey k;
  k.base = std::string(var);
  std::string rel = fs::NormalizePath(suffix);
  if (rel == "." || rel == "/") {
    rel = "";
  }
  while (!rel.empty() && rel.front() == '/') {
    rel.erase(rel.begin());
  }
  k.rel = rel;
  return k;
}

std::string PathKey::ToString() const {
  if (base.empty()) {
    return rel;
  }
  if (rel.empty()) {
    return base;
  }
  return base + "/" + rel;
}

bool PathKey::IsAncestorOf(const PathKey& other) const {
  if (base != other.base) {
    return false;
  }
  if (rel == other.rel) {
    return false;
  }
  if (rel.empty()) {
    // The variable root itself (or "/" for concrete "" — normalized concrete
    // roots are "/" not "", so this branch is var-rooted only).
    return !other.rel.empty();
  }
  if (rel == "/") {
    return other.rel.size() > 1;
  }
  return other.rel.size() > rel.size() && other.rel.compare(0, rel.size(), rel) == 0 &&
         other.rel[rel.size()] == '/';
}

namespace {

// Strict ancestors of `key`, nearest first. The concrete root "/" and a
// var-rooted base with empty rel are included (except "/" itself, which is
// always a directory and never worth recording).
std::vector<PathKey> Ancestors(const PathKey& key) {
  std::vector<PathKey> out;
  if (key.base.empty()) {
    std::string cur = key.rel;
    while (cur != "/" && cur != ".") {
      cur = fs::DirName(cur);
      if (cur == "/" || cur == ".") {
        break;
      }
      out.push_back(PathKey{"", cur});
    }
  } else if (!key.rel.empty()) {
    std::string cur = key.rel;
    while (true) {
      std::string dir = fs::DirName(cur);
      if (dir == "." || dir == cur) {
        out.push_back(PathKey{key.base, ""});
        break;
      }
      out.push_back(PathKey{key.base, dir});
      cur = dir;
    }
  }
  return out;
}

}  // namespace

uint64_t SymbolicFs::FactHash(const PathKey& key, PathState state) {
  uint64_t h = util::Fnv1a(key.base, 0x5f73666b65793a00ull);  // "_sfskey:" tag
  h = util::Fnv1a("\x1f", h);  // Separator: ("a","b/c") != ("ab","/c").
  h = util::Fnv1a(key.rel, h);
  return util::FnvMix64(h, static_cast<uint64_t>(state));
}

void SymbolicFs::SetFact(const PathKey& key, PathState state) {
  auto found = facts_->find(key);
  if (found != facts_->end()) {
    if (found->second == state) {
      return;
    }
    digest_.Remove(FactHash(key, found->second));
  }
  facts_.write()[key] = state;
  digest_.Add(FactHash(key, state));
}

void SymbolicFs::EraseDescendants(const PathKey& key) {
  auto is_descendant = [&key](const FactMap::value_type& fact) {
    return key.IsAncestorOf(fact.first);
  };
  if (std::none_of(facts_->begin(), facts_->end(), is_descendant)) {
    return;
  }
  FactMap& facts = facts_.write();
  for (auto it = facts.begin(); it != facts.end();) {
    if (is_descendant(*it)) {
      digest_.Remove(FactHash(it->first, it->second));
      it = facts.erase(it);
    } else {
      ++it;
    }
  }
}

void SymbolicFs::Assume(const PathKey& key, PathState state) {
  if (state == PathState::kAbsent) {
    // Every recorded descendant is gone too.
    EraseDescendants(key);
  }
  if (state == PathState::kIsFile || state == PathState::kIsDir || state == PathState::kExists) {
    // Everything above an existing path is a directory.
    for (const PathKey& parent : Ancestors(key)) {
      SetFact(parent, PathState::kIsDir);
    }
  }
  SetFact(key, state);
}

PathState SymbolicFs::Query(const PathKey& key) const {
  // An absent ancestor forces absence.
  const FactMap& facts = *facts_;
  for (const auto& [fact_key, fact_state] : facts) {
    if (fact_state == PathState::kAbsent && fact_key.IsAncestorOf(key)) {
      return PathState::kAbsent;
    }
    // A *file* ancestor also makes the path unresolvable; report absent.
    if (fact_state == PathState::kIsFile && fact_key.IsAncestorOf(key)) {
      return PathState::kAbsent;
    }
  }
  auto it = facts.find(key);
  if (it != facts.end()) {
    return it->second;
  }
  // A recorded descendant implies this path is a directory.
  for (const auto& [fact_key, fact_state] : facts) {
    if (fact_state != PathState::kAbsent && key.IsAncestorOf(fact_key)) {
      return PathState::kIsDir;
    }
  }
  return PathState::kAny;
}

Knowledge SymbolicFs::CheckRequirement(const PathKey& key, PathState required) const {
  PathState known = Query(key);
  if (known == PathState::kAny || required == PathState::kAny) {
    return known == PathState::kAny && required != PathState::kAny ? Knowledge::kUnknown
                                                                   : Knowledge::kKnown;
  }
  if (specs::StateSatisfies(known, required)) {
    return Knowledge::kKnown;
  }
  // kExists recorded (file-or-dir, exact kind unknown) may still satisfy
  // kIsFile/kIsDir.
  if (known == PathState::kExists &&
      (required == PathState::kIsFile || required == PathState::kIsDir)) {
    return Knowledge::kUnknown;
  }
  return Knowledge::kContradiction;
}

void SymbolicFs::ApplyDeleteTree(const PathKey& key) { Assume(key, PathState::kAbsent); }

void SymbolicFs::ApplyDeleteFile(const PathKey& key) { Assume(key, PathState::kAbsent); }

void SymbolicFs::ApplyCreateFile(const PathKey& key) { Assume(key, PathState::kIsFile); }

void SymbolicFs::ApplyCreateDir(const PathKey& key) { Assume(key, PathState::kIsDir); }

std::string SymbolicFs::ToString() const {
  std::string out;
  for (const auto& [key, state] : *facts_) {
    out += key.ToString();
    out += ": ";
    out += specs::PathStateName(state);
    out += '\n';
  }
  return out;
}

}  // namespace sash::symfs

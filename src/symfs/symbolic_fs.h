// Symbolic file-system state: constraints on what exists where, accumulated
// as the symbolic engine applies command postconditions, and queried when it
// checks preconditions.
//
// Paths are either concrete absolute strings or *variable-rooted*: a pair of
// (variable placeholder, relative suffix), e.g. ($1, "config") for the
// paper's §4 example
//     rm -r $1; cat $1/config
// After rm's postcondition marks ($1, "") absent, cat's precondition that
// ($1, "config") is a file contradicts the ancestor's absence: the engine
// reports that the invocation will *always* fail.
#ifndef SASH_SYMFS_SYMBOLIC_FS_H_
#define SASH_SYMFS_SYMBOLIC_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "specs/hoare.h"
#include "util/cow.h"
#include "util/hash.h"

namespace sash::symfs {

// A symbolic path: `base` is "" for concrete absolute paths (then `rel` is the
// absolute path), or a variable placeholder like "$1" (then `rel` is the
// suffix under it, possibly empty).
struct PathKey {
  std::string base;  // "" (concrete) or "$name".
  std::string rel;   // Normalized, no leading slash for var-rooted keys.

  static PathKey Concrete(std::string_view absolute_path);
  static PathKey VarRooted(std::string_view var, std::string_view suffix);

  bool operator<(const PathKey& o) const {
    return base != o.base ? base < o.base : rel < o.rel;
  }
  bool operator==(const PathKey&) const = default;

  std::string ToString() const;

  // True when `this` is a strict ancestor directory of `other`.
  bool IsAncestorOf(const PathKey& other) const;
};

using specs::PathState;

// Three-valued answer to "what do we know about this path".
enum class Knowledge {
  kUnknown,        // Nothing recorded; environment-dependent.
  kKnown,          // A definite PathState is recorded or derivable.
  kContradiction,  // The store already proves the opposite of a new assertion.
};

class SymbolicFs {
 public:
  // Records that `key` is now in `state`, updating derived facts:
  //   - marking a path absent marks every recorded descendant absent;
  //   - marking a path existing marks every ancestor a directory.
  // Returns kContradiction when the new fact is inconsistent with what is
  // already *required* to hold (used for always-fails detection at check
  // time; Assume never fails, it overwrites — commands change the world).
  void Assume(const PathKey& key, PathState state);

  // What the store knows about `key`, deriving from ancestors:
  // an absent ancestor forces kAbsent; otherwise any recorded fact.
  PathState Query(const PathKey& key) const;

  // Would requiring `state` of `key` be satisfiable given current knowledge?
  // kKnown = the requirement definitely holds; kContradiction = it definitely
  // cannot hold; kUnknown = depends on the environment.
  Knowledge CheckRequirement(const PathKey& key, PathState required) const;

  // Effect application (command postconditions).
  void ApplyDeleteTree(const PathKey& key);
  void ApplyDeleteFile(const PathKey& key);
  void ApplyCreateFile(const PathKey& key);
  void ApplyCreateDir(const PathKey& key);

  // Number of recorded facts (for explosion benchmarks).
  size_t FactCount() const { return facts_->size(); }

  // Debug rendering, one "path: state" per line.
  std::string ToString() const;

  // Order-independent 64-bit digest of the fact set, maintained
  // incrementally on every mutation (all of which funnel through Assume).
  // Content-based (hashes path strings and states), so it is stable across
  // runs and thread interleavings; used by the state-merge digest.
  uint64_t Digest() const { return digest_.value(); }

 private:
  using FactMap = std::map<PathKey, PathState>;

  static uint64_t FactHash(const PathKey& key, PathState state);
  // The only writers of facts_; they keep digest_ in sync, and neither
  // clones a shared map when the write would change nothing.
  void SetFact(const PathKey& key, PathState state);
  void EraseDescendants(const PathKey& key);

  // Shared between copies (forked states) until one of them writes.
  util::Cow<FactMap> facts_;
  util::CommutativeDigest digest_;
};

}  // namespace sash::symfs

#endif  // SASH_SYMFS_SYMBOLIC_FS_H_

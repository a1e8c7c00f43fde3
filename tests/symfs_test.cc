#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "symfs/symbolic_fs.h"

namespace sash::symfs {
namespace {

TEST(PathKey, ConstructionNormalizes) {
  PathKey c = PathKey::Concrete("/a//b/./c");
  EXPECT_EQ(c.base, "");
  EXPECT_EQ(c.rel, "/a/b/c");
  PathKey v = PathKey::VarRooted("$1", "/config");
  EXPECT_EQ(v.base, "$1");
  EXPECT_EQ(v.rel, "config");
  PathKey root = PathKey::VarRooted("$1", "");
  EXPECT_EQ(root.rel, "");
  EXPECT_EQ(root.ToString(), "$1");
  EXPECT_EQ(v.ToString(), "$1/config");
}

TEST(PathKey, AncestorRelation) {
  PathKey a = PathKey::Concrete("/a");
  PathKey ab = PathKey::Concrete("/a/b");
  PathKey abc = PathKey::Concrete("/a/b/c");
  PathKey ax = PathKey::Concrete("/ax");
  EXPECT_TRUE(a.IsAncestorOf(ab));
  EXPECT_TRUE(a.IsAncestorOf(abc));
  EXPECT_FALSE(a.IsAncestorOf(ax));  // Prefix but not a path ancestor.
  EXPECT_FALSE(ab.IsAncestorOf(a));
  EXPECT_FALSE(a.IsAncestorOf(a));
  PathKey var = PathKey::VarRooted("$1", "");
  PathKey var_sub = PathKey::VarRooted("$1", "config");
  PathKey other_var = PathKey::VarRooted("$2", "config");
  EXPECT_TRUE(var.IsAncestorOf(var_sub));
  EXPECT_FALSE(var.IsAncestorOf(other_var));
  EXPECT_FALSE(var.IsAncestorOf(PathKey::Concrete("/a")));
}

TEST(SymbolicFs, BasicAssumeQuery) {
  SymbolicFs sfs;
  PathKey f = PathKey::Concrete("/etc/passwd");
  EXPECT_EQ(sfs.Query(f), PathState::kAny);
  sfs.Assume(f, PathState::kIsFile);
  EXPECT_EQ(sfs.Query(f), PathState::kIsFile);
  // Ancestors become directories.
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/etc")), PathState::kIsDir);
}

TEST(SymbolicFs, AbsentAncestorForcesAbsence) {
  SymbolicFs sfs;
  sfs.Assume(PathKey::Concrete("/d"), PathState::kAbsent);
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/d/x")), PathState::kAbsent);
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/d/x/y")), PathState::kAbsent);
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/other")), PathState::kAny);
}

TEST(SymbolicFs, FileAncestorBlocksResolution) {
  SymbolicFs sfs;
  sfs.Assume(PathKey::Concrete("/f"), PathState::kIsFile);
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/f/sub")), PathState::kAbsent);
}

TEST(SymbolicFs, DescendantImpliesDirectory) {
  SymbolicFs sfs;
  sfs.Assume(PathKey::VarRooted("$1", "config"), PathState::kIsFile);
  EXPECT_EQ(sfs.Query(PathKey::VarRooted("$1", "")), PathState::kIsDir);
}

// The paper's §4 composition bug: rm -r $1; cat $1/config.
TEST(SymbolicFs, RmThenCatContradiction) {
  SymbolicFs sfs;
  PathKey root = PathKey::VarRooted("$1", "");
  PathKey config = PathKey::VarRooted("$1", "config");
  // Initially unknown: cat's requirement is merely unknown.
  EXPECT_EQ(sfs.CheckRequirement(config, PathState::kIsFile), Knowledge::kUnknown);
  // rm -r $1.
  sfs.ApplyDeleteTree(root);
  // Now cat $1/config *cannot* succeed.
  EXPECT_EQ(sfs.CheckRequirement(config, PathState::kIsFile), Knowledge::kContradiction);
  EXPECT_EQ(sfs.Query(config), PathState::kAbsent);
}

TEST(SymbolicFs, RecreationAfterDeleteIsConsistent) {
  SymbolicFs sfs;
  PathKey d = PathKey::VarRooted("$1", "");
  PathKey f = PathKey::VarRooted("$1", "config");
  sfs.ApplyDeleteTree(d);
  EXPECT_EQ(sfs.CheckRequirement(f, PathState::kIsFile), Knowledge::kContradiction);
  // mkdir $1; touch $1/config restores satisfiability.
  sfs.ApplyCreateDir(d);
  sfs.ApplyCreateFile(f);
  EXPECT_EQ(sfs.CheckRequirement(f, PathState::kIsFile), Knowledge::kKnown);
}

TEST(SymbolicFs, DeleteErasesDescendantFacts) {
  SymbolicFs sfs;
  sfs.Assume(PathKey::Concrete("/d/a"), PathState::kIsFile);
  sfs.Assume(PathKey::Concrete("/d/b"), PathState::kIsDir);
  size_t before = sfs.FactCount();
  EXPECT_GE(before, 3u);  // /d/a, /d/b, /d.
  sfs.ApplyDeleteTree(PathKey::Concrete("/d"));
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/d/a")), PathState::kAbsent);
  EXPECT_EQ(sfs.Query(PathKey::Concrete("/d")), PathState::kAbsent);
}

TEST(SymbolicFs, CheckRequirementThreeValued) {
  SymbolicFs sfs;
  PathKey p = PathKey::Concrete("/p");
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kIsFile), Knowledge::kUnknown);
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kAny), Knowledge::kKnown);
  sfs.Assume(p, PathState::kExists);
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kExists), Knowledge::kKnown);
  // Exists-but-kind-unknown vs file requirement: environment-dependent.
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kIsFile), Knowledge::kUnknown);
  sfs.Assume(p, PathState::kIsDir);
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kIsFile), Knowledge::kContradiction);
  EXPECT_EQ(sfs.CheckRequirement(p, PathState::kAbsent), Knowledge::kContradiction);
}

TEST(SymbolicFs, ToStringListsFacts) {
  SymbolicFs sfs;
  sfs.Assume(PathKey::Concrete("/x"), PathState::kIsFile);
  std::string s = sfs.ToString();
  EXPECT_NE(s.find("/x: path.F"), std::string::npos);
}

// Copies share their fact map until one side writes (copy-on-write); a
// write to one copy must never show through the other.
void Populate(SymbolicFs* sfs) {
  sfs->Assume(PathKey::Concrete("/d/a"), PathState::kIsFile);
  sfs->Assume(PathKey::Concrete("/d/b/c"), PathState::kIsDir);
  sfs->Assume(PathKey::Concrete("/gone"), PathState::kAbsent);
  sfs->Assume(PathKey::VarRooted("$1", "config"), PathState::kExists);
}

const std::vector<PathKey>& Probes() {
  static const std::vector<PathKey> probes = {
      PathKey::Concrete("/d"),      PathKey::Concrete("/d/a"),
      PathKey::Concrete("/d/b"),    PathKey::Concrete("/d/b/c"),
      PathKey::Concrete("/gone/x"), PathKey::Concrete("/new"),
      PathKey::Concrete("/new/f"),  PathKey::VarRooted("$1", ""),
      PathKey::VarRooted("$1", "config"),
  };
  return probes;
}

std::vector<PathState> Answers(const SymbolicFs& sfs) {
  std::vector<PathState> out;
  for (const PathKey& key : Probes()) {
    out.push_back(sfs.Query(key));
  }
  return out;
}

TEST(SymbolicFs, CopiesAreIsolatedFromEveryWriter) {
  using Writer = std::function<void(SymbolicFs*)>;
  std::vector<std::pair<std::string, Writer>> writers;
  for (PathState state : {PathState::kAny, PathState::kExists, PathState::kIsFile,
                          PathState::kIsDir, PathState::kAbsent}) {
    for (const PathKey& key : Probes()) {
      writers.emplace_back(
          "Assume(" + key.ToString() + ", " + std::string(specs::PathStateName(state)) + ")",
          [key, state](SymbolicFs* sfs) { sfs->Assume(key, state); });
    }
  }
  writers.emplace_back("ApplyDeleteTree(/d)",
                       [](SymbolicFs* sfs) { sfs->ApplyDeleteTree(PathKey::Concrete("/d")); });
  writers.emplace_back("ApplyDeleteFile(/d/a)",
                       [](SymbolicFs* sfs) { sfs->ApplyDeleteFile(PathKey::Concrete("/d/a")); });
  writers.emplace_back("ApplyCreateFile(/new/f)",
                       [](SymbolicFs* sfs) { sfs->ApplyCreateFile(PathKey::Concrete("/new/f")); });
  writers.emplace_back("ApplyCreateDir($1)", [](SymbolicFs* sfs) {
    sfs->ApplyCreateDir(PathKey::VarRooted("$1", ""));
  });

  for (const auto& [name, write] : writers) {
    SCOPED_TRACE(name);
    SymbolicFs original;
    Populate(&original);
    const std::string text = original.ToString();
    const std::vector<PathState> answers = Answers(original);
    const uint64_t digest = original.Digest();

    SymbolicFs copy = original;
    write(&copy);
    EXPECT_EQ(original.ToString(), text);
    EXPECT_EQ(Answers(original), answers);
    EXPECT_EQ(original.Digest(), digest);

    // The same writes on a store that was never copied.
    SymbolicFs fresh;
    Populate(&fresh);
    write(&fresh);
    EXPECT_EQ(copy.ToString(), fresh.ToString());
    EXPECT_EQ(Answers(copy), Answers(fresh));
    EXPECT_EQ(copy.Digest(), fresh.Digest());

    // And the other direction: writing the original leaves the copy alone.
    SymbolicFs copy2 = original;
    write(&original);
    EXPECT_EQ(copy2.ToString(), text);
    EXPECT_EQ(copy2.Digest(), digest);
    EXPECT_EQ(original.Digest(), fresh.Digest());
  }
}

}  // namespace
}  // namespace sash::symfs

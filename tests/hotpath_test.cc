// Unit tests for the hot-path layer: the string interner, the AST arena,
// the commutative digest accumulator and the state digests built on it, the
// compiled-pattern cache, and the spec library's indexed dispatch.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "regex/glob.h"
#include "regex/regex.h"
#include "specs/library.h"
#include "symex/state.h"
#include "symex/value.h"
#include "symfs/symbolic_fs.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/intern.h"

namespace sash {
namespace {

using util::Symbol;

TEST(InternTest, SameTextSameSymbol) {
  Symbol a = Symbol::Intern("hotpath_test_var");
  Symbol b = Symbol::Intern("hotpath_test_var");
  Symbol c = Symbol::Intern("hotpath_test_other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "hotpath_test_var");
  EXPECT_EQ(c.view(), "hotpath_test_other");
}

TEST(InternTest, EmptyStringIsIdZero) {
  Symbol empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.id(), 0u);
  EXPECT_EQ(empty.str(), "");
  EXPECT_EQ(Symbol::Intern(""), empty);
}

TEST(InternTest, HashIsContentHash) {
  // The digest layer depends on symbol hashes being content hashes, not id
  // hashes: equal text → equal hash, and the value matches a direct FNV.
  Symbol a = Symbol::Intern("hotpath_content_hash");
  EXPECT_EQ(a.hash(), util::Fnv1a("hotpath_content_hash"));
}

TEST(InternTest, FindDoesNotInsert) {
  size_t before = util::Interner::size();
  EXPECT_FALSE(Symbol::Find("hotpath_never_interned_name_xyz").has_value());
  EXPECT_EQ(util::Interner::size(), before);
  Symbol a = Symbol::Intern("hotpath_find_me");
  auto found = Symbol::Find("hotpath_find_me");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
}

TEST(InternTest, ConcurrentInterningIsConsistent) {
  // Many threads intern overlapping name sets; every thread must get the
  // same id for the same text, and reads must stay valid throughout.
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::vector<std::vector<uint32_t>> ids(kThreads, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < kNames; ++i) {
        Symbol s = Symbol::Intern("hotpath_conc_" + std::to_string(i));
        EXPECT_EQ(s.str(), "hotpath_conc_" + std::to_string(i));
        ids[t][static_cast<size_t>(i)] = s.id();
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
}

struct DtorCounter {
  explicit DtorCounter(int* destroyed) : counter(destroyed) {}
  ~DtorCounter() { ++*counter; }
  int* counter;
  std::string payload = "owns heap memory";
};

TEST(ArenaTest, RunsDestructorsOnTeardown) {
  int destroyed = 0;
  {
    util::Arena arena;
    for (int i = 0; i < 100; ++i) {
      arena.New<DtorCounter>(&destroyed);
    }
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 100);
}

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  util::Arena arena;
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.Allocate(24, 8);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_GE(arena.BytesAllocated(), 24u * 1000u);
  EXPECT_GT(arena.Blocks(), 1u);  // 24 KB of payload outgrows the 4 KB first block.
}

TEST(CommutativeDigestTest, OrderIndependentAddRemove) {
  util::CommutativeDigest a;
  util::CommutativeDigest b;
  a.Add(1);
  a.Add(2);
  a.Add(3);
  b.Add(3);
  b.Add(1);
  b.Add(2);
  EXPECT_EQ(a.value(), b.value());
  a.Remove(2);
  b.Remove(2);
  EXPECT_EQ(a.value(), b.value());
  b.Remove(1);
  EXPECT_NE(a.value(), b.value());
  b.Add(1);
  EXPECT_EQ(a.value(), b.value());
}

TEST(SymValueDigestTest, DomainSeparatedAndStable) {
  using symex::SymValue;
  SymValue conc = SymValue::Concrete("abc");
  SymValue conc2 = SymValue::Concrete("abc");
  EXPECT_EQ(conc.Digest(), conc2.Digest());
  EXPECT_NE(SymValue::Concrete("abc").Digest(), SymValue::Concrete("abd").Digest());
  // A concrete string and a language whose pattern is that string must not
  // collide (domain separation between the two forms).
  SymValue lang = SymValue::Language(regex::Regex::Literal("abc"));
  EXPECT_NE(conc.Digest(), lang.Digest());
  EXPECT_NE(conc.Digest(), 0u);
}

TEST(StateDigestTest, TracksBindMutations) {
  symex::State a;
  symex::State b;
  EXPECT_EQ(a.Digest(), b.Digest());
  a.Bind(std::string("HOTPATH_X"), symex::SymValue::Concrete("1"));
  EXPECT_NE(a.Digest(), b.Digest());
  b.Bind(std::string("HOTPATH_X"), symex::SymValue::Concrete("1"));
  EXPECT_EQ(a.Digest(), b.Digest());
  // Binding order must not matter (the var store digest is commutative).
  a.Bind(std::string("HOTPATH_Y"), symex::SymValue::Concrete("2"));
  a.Bind(std::string("HOTPATH_Z"), symex::SymValue::Concrete("3"));
  b.Bind(std::string("HOTPATH_Z"), symex::SymValue::Concrete("3"));
  b.Bind(std::string("HOTPATH_Y"), symex::SymValue::Concrete("2"));
  EXPECT_EQ(a.Digest(), b.Digest());
  // Unset restores the pre-bind digest; maybe-unset is part of the digest.
  a.Unset(std::string("HOTPATH_Z"));
  b.Unset(std::string("HOTPATH_Z"));
  EXPECT_EQ(a.Digest(), b.Digest());
  a.BindMaybeUnset(std::string("HOTPATH_Y"), symex::SymValue::Concrete("2"));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(StateDigestTest, CoversExitTerminationAndStdout) {
  symex::State a;
  symex::State b;
  a.exit = symex::ExitStatus::Known(1);
  EXPECT_NE(a.Digest(), b.Digest());
  b.exit = symex::ExitStatus::Known(1);
  EXPECT_EQ(a.Digest(), b.Digest());
  a.terminated = true;
  EXPECT_NE(a.Digest(), b.Digest());
  a.terminated = false;
  a.stdout_lines.push_back(symex::SymValue::Concrete("line"));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(SymbolicFsDigestTest, IncrementalMatchesContent) {
  symfs::SymbolicFs a;
  symfs::SymbolicFs b;
  EXPECT_EQ(a.Digest(), b.Digest());
  symfs::PathKey p1 = symfs::PathKey::Concrete("/srv/data");
  symfs::PathKey p2 = symfs::PathKey::Concrete("/srv/logs");
  a.ApplyCreateDir(p1);
  EXPECT_NE(a.Digest(), b.Digest());
  b.ApplyCreateDir(p1);
  EXPECT_EQ(a.Digest(), b.Digest());
  // Same facts reached by a different mutation order digest equally.
  a.ApplyCreateDir(p2);
  symfs::SymbolicFs c;
  c.ApplyCreateDir(p2);
  c.ApplyCreateDir(p1);
  EXPECT_EQ(a.Digest(), c.Digest());
  // Overwriting a fact (delete after create) moves the digest.
  uint64_t before = a.Digest();
  a.ApplyDeleteTree(p2);
  EXPECT_NE(a.Digest(), before);
}

class PatternCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { regex::PatternCache::Clear(); }
};

TEST_F(PatternCacheTest, HitsAndMissesAreCounted) {
  uint64_t misses0 = regex::PatternCache::Misses();
  uint64_t hits0 = regex::PatternCache::Hits();
  auto first = regex::Regex::FromPattern("hotpath[0-9]+cache");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(regex::PatternCache::Misses(), misses0 + 1);
  auto second = regex::Regex::FromPattern("hotpath[0-9]+cache");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(regex::PatternCache::Hits(), hits0 + 1);
  // The cached copy must behave identically.
  EXPECT_TRUE(second->Matches("hotpath42cache"));
  EXPECT_FALSE(second->Matches("hotpathXcache"));
}

TEST_F(PatternCacheTest, DomainsDoNotAlias) {
  // The same pattern text compiled as a full pattern, a search pattern, and
  // a glob means three different languages; the cache must keep them apart.
  const std::string pattern = "a*";
  auto full = regex::Regex::FromPattern(pattern);
  auto search = regex::Regex::FromSearchPattern(pattern);
  regex::Regex glob = regex::GlobLanguage(pattern);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(search.has_value());
  // p:"a*" = zero or more 'a'; g:"a*" = 'a' then anything; s:"a*" = any line
  // containing the match. "ax" separates all three from full.
  EXPECT_FALSE(full->Matches("ax"));
  EXPECT_TRUE(glob.Matches("ax"));
  EXPECT_TRUE(search->Matches("ax"));
  // Second round comes from the cache and must agree.
  auto full2 = regex::Regex::FromPattern(pattern);
  regex::Regex glob2 = regex::GlobLanguage(pattern);
  ASSERT_TRUE(full2.has_value());
  EXPECT_FALSE(full2->Matches("ax"));
  EXPECT_TRUE(glob2.Matches("ax"));
}

TEST(SpecLibraryTest, DuplicateRegistrationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        specs::SpecLibrary lib;
        specs::CommandSpec spec;
        spec.syntax.command = "hotpath_dup_cmd";
        lib.Register(spec);
        lib.Register(spec);
      },
      "duplicate registration");
}

TEST(SpecLibraryTest, IndexedFindMatchesNames) {
  const specs::SpecLibrary& lib = specs::SpecLibrary::BuiltinGroundTruth();
  for (const std::string& name : lib.CommandNames()) {
    const specs::CommandSpec* spec = lib.Find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->command(), name);
  }
  EXPECT_EQ(lib.Find(std::string("hotpath_not_a_command")), nullptr);
}

}  // namespace
}  // namespace sash

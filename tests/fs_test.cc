#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "fs/filesystem.h"
#include "fs/glob.h"
#include "fs/path.h"

namespace sash::fs {
namespace {

TEST(Path, Normalize) {
  EXPECT_EQ(NormalizePath("/a//b/"), "/a/b");
  EXPECT_EQ(NormalizePath("/a/./b"), "/a/b");
  EXPECT_EQ(NormalizePath("/a/b/.."), "/a");
  EXPECT_EQ(NormalizePath("/.."), "/");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath(""), ".");
  EXPECT_EQ(NormalizePath("a/../b"), "b");
  EXPECT_EQ(NormalizePath("../a"), "../a");
  EXPECT_EQ(NormalizePath("a/.."), ".");
}

TEST(Path, DirBaseName) {
  EXPECT_EQ(DirName("/a/b"), "/a");
  EXPECT_EQ(DirName("/a"), "/");
  EXPECT_EQ(DirName("a"), ".");
  EXPECT_EQ(BaseName("/a/b"), "b");
  EXPECT_EQ(BaseName("/"), "/");
  EXPECT_EQ(BaseName("x"), "x");
}

TEST(Path, JoinAndAbsolutize) {
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a/", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a", "/b"), "/b");
  EXPECT_EQ(Absolutize("x/y", "/home/u"), "/home/u/x/y");
  EXPECT_EQ(Absolutize("/x", "/home/u"), "/x");
  EXPECT_EQ(Absolutize("..", "/home/u"), "/home");
}

// The split/join normalization NormalizePath replaced, kept as the
// reference the one-pass version must agree with.
std::string ReferenceNormalize(std::string_view path) {
  const bool absolute = IsAbsolute(path);
  std::vector<std::string> stack;
  for (std::string& part : SplitPath(path)) {
    if (part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty() && stack.back() != "..") {
        stack.pop_back();
      } else if (!absolute) {
        stack.push_back("..");
      }
      continue;
    }
    stack.push_back(std::move(part));
  }
  std::string joined;
  for (size_t i = 0; i < stack.size(); ++i) {
    joined += (i == 0 ? "" : "/") + stack[i];
  }
  std::string out = absolute ? "/" + joined : joined;
  return out.empty() ? "." : out;
}

std::string ReferenceDirName(std::string_view path) {
  std::string norm = ReferenceNormalize(path);
  size_t pos = norm.rfind('/');
  return pos == std::string::npos ? "." : pos == 0 ? "/" : norm.substr(0, pos);
}

std::string ReferenceBaseName(std::string_view path) {
  std::string norm = ReferenceNormalize(path);
  size_t pos = norm.rfind('/');
  return norm == "/" || pos == std::string::npos ? norm : norm.substr(pos + 1);
}

// Every path of up to five components drawn from {"", ".", "..", "...",
// "a", "bb"}, each gap a single or doubled slash, absolute and relative.
// An empty first or last component gives the doubled leading and the
// trailing slashes.
std::vector<std::string> ExhaustivePaths() {
  const std::vector<std::string> kParts = {"", ".", "..", "...", "a", "bb"};
  std::vector<std::string> bodies = {""};
  std::vector<std::string> level = {""};
  for (int depth = 1; depth <= 5; ++depth) {
    std::vector<std::string> next;
    for (const std::string& prefix : level) {
      for (const std::string& part : kParts) {
        if (prefix.empty() && depth == 1) {
          next.push_back(part);
          continue;
        }
        next.push_back(prefix + "/" + part);
        next.push_back(prefix + "//" + part);
      }
    }
    bodies.insert(bodies.end(), next.begin(), next.end());
    level = std::move(next);
  }
  std::vector<std::string> out;
  for (const std::string& body : bodies) {
    out.push_back(body);
    out.push_back("/" + body);
  }
  return out;
}

TEST(Path, OnePassMatchesSplitJoinReference) {
  const std::vector<std::string> paths = ExhaustivePaths();
  ASSERT_GT(paths.size(), 250000u);
  size_t mismatches = 0;
  for (const std::string& path : paths) {
    const std::string want = ReferenceNormalize(path);
    const bool same = NormalizePath(path) == want && DirName(path) == ReferenceDirName(path) &&
                      BaseName(path) == ReferenceBaseName(path) &&
                      Absolutize(path, "/c/d") == ReferenceNormalize(JoinPath("/c/d", path)) &&
                      Absolutize(path, "/") == ReferenceNormalize(JoinPath("/", path));
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << "'" << path << "': reference '" << want << "', one-pass '"
                    << NormalizePath(path) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FileSystem, CreateReadWrite) {
  FileSystem fs;
  EXPECT_TRUE(fs.MakeDir("/home", false).ok());
  EXPECT_TRUE(fs.MakeDir("/home/u", false).ok());
  EXPECT_TRUE(fs.WriteFile("/home/u/f.txt", "hello").ok());
  EXPECT_TRUE(fs.IsFile("/home/u/f.txt"));
  EXPECT_TRUE(fs.IsDir("/home/u"));
  EXPECT_FALSE(fs.IsDir("/home/u/f.txt"));
  Result<std::string> content = fs.ReadFile("/home/u/f.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  EXPECT_TRUE(fs.WriteFile("/home/u/f.txt", " world", /*append=*/true).ok());
  EXPECT_EQ(*fs.ReadFile("/home/u/f.txt"), "hello world");
}

TEST(FileSystem, MkdirParents) {
  FileSystem fs;
  EXPECT_FALSE(fs.MakeDir("/a/b/c", false).ok());
  EXPECT_TRUE(fs.MakeDir("/a/b/c", true).ok());
  EXPECT_TRUE(fs.IsDir("/a/b/c"));
  // Idempotent with parents.
  EXPECT_TRUE(fs.MakeDir("/a/b/c", true).ok());
  // Without parents, existing dir is EEXIST.
  Status s = fs.MakeDir("/a/b/c", false);
  EXPECT_EQ(s.code(), Errc::kExists);
}

TEST(FileSystem, ErrorsCarryPosixCodes) {
  FileSystem fs;
  EXPECT_EQ(fs.ReadFile("/nope").code(), Errc::kNoEnt);
  fs.WriteFile("/f", "x");
  EXPECT_EQ(fs.MakeDir("/f/sub", false).code(), Errc::kNotDir);
  EXPECT_EQ(fs.ReadFile("/").code(), Errc::kIsDir);
  EXPECT_EQ(fs.ListDir("/f").code(), Errc::kNotDir);
}

TEST(FileSystem, CwdAndRelativePaths) {
  FileSystem fs;
  fs.MakeDir("/home/u", true);
  EXPECT_TRUE(fs.ChangeDir("/home/u").ok());
  EXPECT_EQ(fs.cwd(), "/home/u");
  EXPECT_TRUE(fs.WriteFile("notes.txt", "n").ok());
  EXPECT_TRUE(fs.IsFile("/home/u/notes.txt"));
  EXPECT_TRUE(fs.ChangeDir("..").ok());
  EXPECT_EQ(fs.cwd(), "/home");
  EXPECT_FALSE(fs.ChangeDir("/home/u/notes.txt").ok());
  EXPECT_FALSE(fs.ChangeDir("/missing").ok());
}

TEST(FileSystem, RemoveSemantics) {
  FileSystem fs;
  fs.MakeDir("/d/sub", true);
  fs.WriteFile("/d/f", "x");
  // Plain rm refuses a directory.
  EXPECT_EQ(fs.Remove("/d", false, false).code(), Errc::kIsDir);
  // rm -r deletes the tree.
  EXPECT_TRUE(fs.Remove("/d", true, false).ok());
  EXPECT_FALSE(fs.Exists("/d"));
  // rm on a missing path errors; rm -f does not.
  EXPECT_EQ(fs.Remove("/gone", false, false).code(), Errc::kNoEnt);
  EXPECT_TRUE(fs.Remove("/gone", false, true).ok());
}

TEST(FileSystem, RemoveEmptyDir) {
  FileSystem fs;
  fs.MakeDir("/d/sub", true);
  EXPECT_EQ(fs.RemoveEmptyDir("/d").code(), Errc::kNotEmpty);
  EXPECT_TRUE(fs.RemoveEmptyDir("/d/sub").ok());
  EXPECT_TRUE(fs.RemoveEmptyDir("/d").ok());
  fs.WriteFile("/f", "x");
  EXPECT_EQ(fs.RemoveEmptyDir("/f").code(), Errc::kNotDir);
}

TEST(FileSystem, RenameAndCopy) {
  FileSystem fs;
  fs.MakeDir("/a", false);
  fs.MakeDir("/b", false);
  fs.WriteFile("/a/f", "data");
  // mv file into directory keeps basename.
  EXPECT_TRUE(fs.Rename("/a/f", "/b").ok());
  EXPECT_TRUE(fs.IsFile("/b/f"));
  EXPECT_FALSE(fs.Exists("/a/f"));
  // mv rename.
  EXPECT_TRUE(fs.Rename("/b/f", "/b/g").ok());
  EXPECT_TRUE(fs.IsFile("/b/g"));
  // cp.
  EXPECT_TRUE(fs.CopyFile("/b/g", "/a").ok());
  EXPECT_EQ(*fs.ReadFile("/a/g"), "data");
  EXPECT_TRUE(fs.IsFile("/b/g"));
}

TEST(FileSystem, SymlinksResolve) {
  FileSystem fs;
  fs.MakeDir("/real/dir", true);
  fs.WriteFile("/real/dir/f", "x");
  EXPECT_TRUE(fs.CreateSymlink("/real/dir", "/link").ok());
  EXPECT_TRUE(fs.IsSymlink("/link"));
  EXPECT_TRUE(fs.IsDir("/link"));  // stat follows.
  EXPECT_EQ(*fs.ReadFile("/link/f"), "x");
  Result<std::string> real = fs.RealPath("/link/f");
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(*real, "/real/dir/f");
  EXPECT_EQ(*fs.ReadLink("/link"), "/real/dir");
  EXPECT_EQ(fs.ReadLink("/real").code(), Errc::kInval);
}

TEST(FileSystem, RelativeSymlink) {
  FileSystem fs;
  fs.MakeDir("/a/b", true);
  fs.WriteFile("/a/target", "t");
  EXPECT_TRUE(fs.CreateSymlink("../target", "/a/b/ln").ok());
  EXPECT_EQ(*fs.ReadFile("/a/b/ln"), "t");
  EXPECT_EQ(*fs.RealPath("/a/b/ln"), "/a/target");
}

TEST(FileSystem, SymlinkLoopDetected) {
  FileSystem fs;
  fs.CreateSymlink("/b", "/a");
  fs.CreateSymlink("/a", "/b");
  EXPECT_EQ(fs.ReadFile("/a").code(), Errc::kLoop);
  EXPECT_EQ(fs.RealPath("/a").code(), Errc::kLoop);
}

TEST(FileSystem, SnapshotAndDiff) {
  FileSystem fs;
  fs.MakeDir("/d", false);
  fs.WriteFile("/d/f", "1");
  FileSystem::Snapshot before = fs.TakeSnapshot();
  fs.WriteFile("/d/f", "2");
  fs.WriteFile("/d/g", "new");
  fs.Remove("/d/f", false, false);
  fs.MakeDir("/e", false);
  FileSystem::Snapshot after = fs.TakeSnapshot();
  std::vector<std::string> diff = FileSystem::DiffSnapshots(before, after);
  EXPECT_NE(std::find(diff.begin(), diff.end(), "- /d/f"), diff.end());
  EXPECT_NE(std::find(diff.begin(), diff.end(), "+ /d/g (file)"), diff.end());
  EXPECT_NE(std::find(diff.begin(), diff.end(), "+ /e (dir)"), diff.end());
}

TEST(FileSystem, TraceRecordsInterposition) {
  FileSystem fs;
  fs.ClearTrace();
  fs.MakeDir("/d", false);
  fs.WriteFile("/d/f", "x");
  fs.ReadFile("/d/f");
  fs.Remove("/d/f", false, false);
  const std::vector<TraceEntry>& trace = fs.trace();
  ASSERT_GE(trace.size(), 4u);
  bool saw_mkdir = false;
  bool saw_create = false;
  bool saw_read = false;
  bool saw_unlink = false;
  for (const TraceEntry& e : trace) {
    if (e.op == TraceOp::kMkdir && e.path == "/d" && e.ok) {
      saw_mkdir = true;
    }
    if (e.op == TraceOp::kCreate && e.path == "/d/f") {
      saw_create = true;
    }
    if (e.op == TraceOp::kRead && e.path == "/d/f" && e.ok) {
      saw_read = true;
    }
    if (e.op == TraceOp::kUnlink && e.path == "/d/f" && e.ok) {
      saw_unlink = true;
    }
  }
  EXPECT_TRUE(saw_mkdir);
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_unlink);
}

TEST(Glob, MatchBasics) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*.txt", "a.txt"));
  EXPECT_FALSE(GlobMatch("*.txt", "a.txt.bak"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
  EXPECT_TRUE(GlobMatch("[a-c]x", "bx"));
  EXPECT_FALSE(GlobMatch("[a-c]x", "dx"));
  EXPECT_TRUE(GlobMatch("[!a-c]x", "dx"));
  EXPECT_TRUE(GlobMatch("\\*", "*"));
  EXPECT_FALSE(GlobMatch("\\*", "x"));
  EXPECT_TRUE(GlobMatch("*Linux", "Arch Linux"));
  EXPECT_FALSE(GlobMatch("*Linux", "Debian"));
}

TEST(Glob, HasGlobChars) {
  EXPECT_TRUE(HasGlobChars("*.c"));
  EXPECT_TRUE(HasGlobChars("a?b"));
  EXPECT_TRUE(HasGlobChars("[ab]"));
  EXPECT_FALSE(HasGlobChars("plain/path"));
  EXPECT_FALSE(HasGlobChars("esc\\*aped"));
}

TEST(Glob, ExpandAgainstFs) {
  FileSystem fs;
  fs.MakeDir("/home/u/docs", true);
  fs.WriteFile("/home/u/a.txt", "");
  fs.WriteFile("/home/u/b.txt", "");
  fs.WriteFile("/home/u/c.log", "");
  fs.WriteFile("/home/u/.hidden", "");
  std::vector<std::string> matches = ExpandGlob(fs, "/home/u/*.txt", "/");
  EXPECT_EQ(matches, (std::vector<std::string>{"/home/u/a.txt", "/home/u/b.txt"}));
  // '*' skips dotfiles but includes dirs.
  matches = ExpandGlob(fs, "/home/u/*", "/");
  EXPECT_EQ(matches.size(), 4u);
  // Relative expansion is relative.
  fs.ChangeDir("/home/u");
  matches = ExpandGlob(fs, "*.log", fs.cwd());
  EXPECT_EQ(matches, (std::vector<std::string>{"c.log"}));
  // Multi-level glob.
  fs.WriteFile("/home/u/docs/x.txt", "");
  matches = ExpandGlob(fs, "/home/*/docs/*.txt", "/");
  EXPECT_EQ(matches, (std::vector<std::string>{"/home/u/docs/x.txt"}));
}

// The POSIX footgun the paper's Fig. 1 exploits: no match -> literal pattern.
TEST(Glob, NoMatchExpandsToItself) {
  FileSystem fs;
  std::vector<std::string> matches = ExpandGlob(fs, "/empty-dir/*", "/");
  EXPECT_EQ(matches, (std::vector<std::string>{"/empty-dir/*"}));
}

// And the catastrophic case itself: "" + "/*" expands over the root.
TEST(Glob, EmptyRootGlobHitsEverything) {
  FileSystem fs;
  fs.MakeDir("/home", false);
  fs.MakeDir("/usr", false);
  fs.WriteFile("/vmlinuz", "");
  std::vector<std::string> matches = ExpandGlob(fs, "/*", "/");
  EXPECT_EQ(matches, (std::vector<std::string>{"/home", "/usr", "/vmlinuz"}));
}

TEST(FileSystem, LiveNodeCount) {
  FileSystem fs;
  EXPECT_EQ(fs.LiveNodeCount(), 1u);  // Root.
  fs.MakeDir("/a", false);
  fs.WriteFile("/a/f", "x");
  EXPECT_EQ(fs.LiveNodeCount(), 3u);
  fs.Remove("/a", true, false);
  EXPECT_EQ(fs.LiveNodeCount(), 1u);
}

}  // namespace
}  // namespace sash::fs

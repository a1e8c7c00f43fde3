// An in-memory POSIX-style file system with interposition tracing.
//
// This is the execution substrate that replaces the paper's "instantiate
// concrete environments ... with appropriate interposition to record all of
// its interactions" (§3, Fig. 4): the spec miner probes command models against
// FileSystem instances and reads back the trace; the runtime monitor executes
// guarded pipelines against it.
//
// Model: files, directories, and symbolic links; no permissions, owners, or
// timestamps (none of the analyses reason about them); no hard links.
#ifndef SASH_FS_FILESYSTEM_H_
#define SASH_FS_FILESYSTEM_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace sash::fs {

enum class NodeType { kFile, kDir, kSymlink };

enum class TraceOp {
  kStat,
  kRead,
  kWrite,
  kCreate,
  kUnlink,
  kRmdir,
  kMkdir,
  kSymlink,
  kRename,
  kReadDir,
  kChdir,
};

std::string_view TraceOpName(TraceOp op);

// One recorded interaction. `path` is the (absolutized) argument path.
struct TraceEntry {
  TraceOp op;
  std::string path;
  bool ok = true;
};

class FileSystem {
 public:
  FileSystem();

  // ----- working directory -----
  const std::string& cwd() const { return cwd_; }
  Status ChangeDir(std::string_view path);

  // ----- queries -----
  bool Exists(std::string_view path) const;
  bool IsFile(std::string_view path) const;
  bool IsDir(std::string_view path) const;
  bool IsSymlink(std::string_view path) const;  // The link itself (lstat).
  Result<std::string> ReadFile(std::string_view path) const;
  Result<std::vector<std::string>> ListDir(std::string_view path) const;  // Sorted names.
  Result<std::string> ReadLink(std::string_view path) const;

  // Canonical absolute path with every symlink resolved (realpath(3)).
  Result<std::string> RealPath(std::string_view path) const;

  // ----- mutations -----
  Status MakeDir(std::string_view path, bool parents = false);
  Status WriteFile(std::string_view path, std::string_view content, bool append = false);
  Status Touch(std::string_view path);  // Create empty file if absent.
  Status CreateSymlink(std::string_view target, std::string_view linkpath);
  // rm semantics: refuses directories unless `recursive`; with `force`,
  // a missing target is not an error.
  Status Remove(std::string_view path, bool recursive, bool force);
  Status RemoveEmptyDir(std::string_view path);  // rmdir.
  Status Rename(std::string_view from, std::string_view to);
  Status CopyFile(std::string_view from, std::string_view to);

  // ----- snapshot / diff (for effect compilation and tests) -----
  struct Entry {
    NodeType type = NodeType::kFile;
    std::string content;  // Files.
    std::string target;   // Symlinks.
    bool operator==(const Entry&) const = default;
  };
  using Snapshot = std::map<std::string, Entry>;  // Canonical path -> entry.
  Snapshot TakeSnapshot() const;
  // Human-readable change list: "+ /a (file)", "- /b", "~ /c".
  static std::vector<std::string> DiffSnapshots(const Snapshot& before, const Snapshot& after);

  // ----- interposition trace -----
  const std::vector<TraceEntry>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

  size_t LiveNodeCount() const;

 private:
  struct Inode {
    NodeType type = NodeType::kFile;
    std::string content;                  // kFile.
    std::map<std::string, int> entries;   // kDir: name -> inode id.
    std::string target;                   // kSymlink.
  };

  // Resolves to an inode id. `follow_last`: follow a trailing symlink.
  Result<int> ResolveToInode(std::string_view path, bool follow_last) const;
  // Resolution core: walks components, follows symlinks (incl. relative ".."
  // targets), optionally reporting the canonical path.
  Result<int> Walk(std::string_view path, bool follow_last, std::string* canonical_out) const;
  // Resolves the parent directory (following symlinks) and the final name.
  struct ParentRef {
    int dir = -1;
    std::string leaf;
  };
  Result<ParentRef> ResolveParent(std::string_view path) const;

  void Record(TraceOp op, std::string_view path, bool ok) const;
  void SnapshotWalk(int inode, const std::string& path, Snapshot* out) const;
  void RemoveTree(int inode);

  std::vector<Inode> inodes_;  // Index 0 is the root directory.
  std::string cwd_ = "/";
  mutable std::vector<TraceEntry> trace_;
};

}  // namespace sash::fs

#endif  // SASH_FS_FILESYSTEM_H_

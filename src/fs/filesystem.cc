#include "fs/filesystem.h"

#include <algorithm>

#include "fs/path.h"

namespace sash::fs {

namespace {
constexpr int kMaxSymlinkDepth = 40;
}  // namespace

std::string_view TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kStat:
      return "stat";
    case TraceOp::kRead:
      return "read";
    case TraceOp::kWrite:
      return "write";
    case TraceOp::kCreate:
      return "create";
    case TraceOp::kUnlink:
      return "unlink";
    case TraceOp::kRmdir:
      return "rmdir";
    case TraceOp::kMkdir:
      return "mkdir";
    case TraceOp::kSymlink:
      return "symlink";
    case TraceOp::kRename:
      return "rename";
    case TraceOp::kReadDir:
      return "readdir";
    case TraceOp::kChdir:
      return "chdir";
  }
  return "?";
}

FileSystem::FileSystem() {
  Inode root;
  root.type = NodeType::kDir;
  inodes_.push_back(std::move(root));
}

void FileSystem::Record(TraceOp op, std::string_view path, bool ok) const {
  trace_.push_back(TraceEntry{op, Absolutize(path, cwd_), ok});
}

Result<int> FileSystem::ResolveToInode(std::string_view path, bool follow_last) const {
  return Walk(path, follow_last, nullptr);
}

// Core resolution walk. Maintains a stack of inode ids (and their names) so
// that ".." introduced by relative symlink targets pops to the true parent of
// the *resolved* location, not the textual one — the realpath-vs-string
// distinction the paper's Fig. 2 reasoning relies on.
Result<int> FileSystem::Walk(std::string_view path, bool follow_last,
                             std::string* canonical_out) const {
  std::string abs = Absolutize(path, cwd_);
  std::vector<std::string> todo = SplitPath(abs);
  std::reverse(todo.begin(), todo.end());  // Pop from the back.
  std::vector<int> stack{0};               // Root.
  std::vector<std::string> names;          // Parallel to stack[1..].
  int depth = 0;
  while (!todo.empty()) {
    std::string name = std::move(todo.back());
    todo.pop_back();
    if (name == ".") {
      continue;
    }
    if (name == "..") {
      if (stack.size() > 1) {
        stack.pop_back();
        names.pop_back();
      }
      continue;
    }
    const Inode& node = inodes_[static_cast<size_t>(stack.back())];
    if (node.type != NodeType::kDir) {
      return Status::Error(Errc::kNotDir, abs + ": not a directory");
    }
    auto it = node.entries.find(name);
    if (it == node.entries.end()) {
      return Status::Error(Errc::kNoEnt, abs + ": no such file or directory");
    }
    int next = it->second;
    const Inode& next_node = inodes_[static_cast<size_t>(next)];
    bool is_last = todo.empty();
    if (next_node.type == NodeType::kSymlink && (!is_last || follow_last)) {
      if (++depth > kMaxSymlinkDepth) {
        return Status::Error(Errc::kLoop, abs + ": too many levels of symbolic links");
      }
      if (IsAbsolute(next_node.target)) {
        stack.assign(1, 0);
        names.clear();
      }
      std::vector<std::string> target_parts = SplitPath(next_node.target);
      for (auto rit = target_parts.rbegin(); rit != target_parts.rend(); ++rit) {
        todo.push_back(*rit);
      }
      continue;
    }
    stack.push_back(next);
    names.push_back(std::move(name));
  }
  if (canonical_out != nullptr) {
    std::string canonical = "/";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) {
        canonical += '/';
      }
      canonical += names[i];
    }
    *canonical_out = std::move(canonical);
  }
  return stack.back();
}

Result<FileSystem::ParentRef> FileSystem::ResolveParent(std::string_view path) const {
  std::string abs = Absolutize(path, cwd_);
  if (abs == "/") {
    return Status::Error(Errc::kInval, "/: no parent");
  }
  std::string parent = DirName(abs);
  Result<int> dir = ResolveToInode(parent, /*follow_last=*/true);
  if (!dir.ok()) {
    return dir.status();
  }
  if (inodes_[static_cast<size_t>(*dir)].type != NodeType::kDir) {
    return Status::Error(Errc::kNotDir, parent + ": not a directory");
  }
  return ParentRef{*dir, BaseName(abs)};
}

Status FileSystem::ChangeDir(std::string_view path) {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  bool ok = node.ok() && inodes_[static_cast<size_t>(*node)].type == NodeType::kDir;
  Record(TraceOp::kChdir, path, ok);
  if (!node.ok()) {
    return node.status();
  }
  if (inodes_[static_cast<size_t>(*node)].type != NodeType::kDir) {
    return Status::Error(Errc::kNotDir, std::string(path) + ": not a directory");
  }
  // Canonicalize so cwd() is always a clean absolute path.
  Result<std::string> real = RealPath(path);
  cwd_ = real.ok() ? *real : Absolutize(path, cwd_);
  return Status::Ok();
}

bool FileSystem::Exists(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  Record(TraceOp::kStat, path, node.ok());
  return node.ok();
}

bool FileSystem::IsFile(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  Record(TraceOp::kStat, path, node.ok());
  return node.ok() && inodes_[static_cast<size_t>(*node)].type == NodeType::kFile;
}

bool FileSystem::IsDir(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  Record(TraceOp::kStat, path, node.ok());
  return node.ok() && inodes_[static_cast<size_t>(*node)].type == NodeType::kDir;
}

bool FileSystem::IsSymlink(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/false);
  Record(TraceOp::kStat, path, node.ok());
  return node.ok() && inodes_[static_cast<size_t>(*node)].type == NodeType::kSymlink;
}

Result<std::string> FileSystem::ReadFile(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  if (!node.ok()) {
    Record(TraceOp::kRead, path, false);
    return node.status();
  }
  const Inode& inode = inodes_[static_cast<size_t>(*node)];
  if (inode.type != NodeType::kFile) {
    Record(TraceOp::kRead, path, false);
    return Status::Error(Errc::kIsDir, std::string(path) + ": is a directory");
  }
  Record(TraceOp::kRead, path, true);
  return inode.content;
}

Result<std::vector<std::string>> FileSystem::ListDir(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/true);
  if (!node.ok()) {
    Record(TraceOp::kReadDir, path, false);
    return node.status();
  }
  const Inode& inode = inodes_[static_cast<size_t>(*node)];
  if (inode.type != NodeType::kDir) {
    Record(TraceOp::kReadDir, path, false);
    return Status::Error(Errc::kNotDir, std::string(path) + ": not a directory");
  }
  Record(TraceOp::kReadDir, path, true);
  std::vector<std::string> names;
  names.reserve(inode.entries.size());
  for (const auto& [name, id] : inode.entries) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted.
}

Result<std::string> FileSystem::ReadLink(std::string_view path) const {
  Result<int> node = ResolveToInode(path, /*follow_last=*/false);
  if (!node.ok()) {
    return node.status();
  }
  const Inode& inode = inodes_[static_cast<size_t>(*node)];
  if (inode.type != NodeType::kSymlink) {
    return Status::Error(Errc::kInval, std::string(path) + ": not a symlink");
  }
  return inode.target;
}

Result<std::string> FileSystem::RealPath(std::string_view path) const {
  std::string canonical;
  Result<int> node = Walk(path, /*follow_last=*/true, &canonical);
  if (!node.ok()) {
    return node.status();
  }
  return canonical;
}

Status FileSystem::MakeDir(std::string_view path, bool parents) {
  std::string abs = Absolutize(path, cwd_);
  if (parents) {
    std::vector<std::string> parts = SplitPath(abs);
    std::string prefix = "/";
    for (const std::string& part : parts) {
      prefix = JoinPath(prefix, part);
      Result<int> existing = ResolveToInode(prefix, /*follow_last=*/true);
      if (existing.ok()) {
        if (inodes_[static_cast<size_t>(*existing)].type != NodeType::kDir) {
          Record(TraceOp::kMkdir, prefix, false);
          return Status::Error(Errc::kExists, prefix + ": exists and is not a directory");
        }
        continue;
      }
      Status s = MakeDir(prefix, /*parents=*/false);
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }
  Result<ParentRef> parent = ResolveParent(abs);
  if (!parent.ok()) {
    Record(TraceOp::kMkdir, abs, false);
    return parent.status();
  }
  Inode& dir = inodes_[static_cast<size_t>(parent->dir)];
  if (dir.entries.count(parent->leaf) > 0) {
    Record(TraceOp::kMkdir, abs, false);
    return Status::Error(Errc::kExists, abs + ": file exists");
  }
  Inode node;
  node.type = NodeType::kDir;
  inodes_.push_back(std::move(node));
  inodes_[static_cast<size_t>(parent->dir)].entries[parent->leaf] =
      static_cast<int>(inodes_.size()) - 1;
  Record(TraceOp::kMkdir, abs, true);
  return Status::Ok();
}

Status FileSystem::WriteFile(std::string_view path, std::string_view content, bool append) {
  Result<int> existing = ResolveToInode(path, /*follow_last=*/true);
  if (existing.ok()) {
    Inode& inode = inodes_[static_cast<size_t>(*existing)];
    if (inode.type == NodeType::kDir) {
      Record(TraceOp::kWrite, path, false);
      return Status::Error(Errc::kIsDir, std::string(path) + ": is a directory");
    }
    if (append) {
      inode.content += content;
    } else {
      inode.content = std::string(content);
    }
    Record(TraceOp::kWrite, path, true);
    return Status::Ok();
  }
  Result<ParentRef> parent = ResolveParent(path);
  if (!parent.ok()) {
    Record(TraceOp::kCreate, path, false);
    return parent.status();
  }
  Inode node;
  node.type = NodeType::kFile;
  node.content = std::string(content);
  inodes_.push_back(std::move(node));
  inodes_[static_cast<size_t>(parent->dir)].entries[parent->leaf] =
      static_cast<int>(inodes_.size()) - 1;
  Record(TraceOp::kCreate, path, true);
  return Status::Ok();
}

Status FileSystem::Touch(std::string_view path) {
  if (Exists(path)) {
    return Status::Ok();
  }
  return WriteFile(path, "", /*append=*/false);
}

Status FileSystem::CreateSymlink(std::string_view target, std::string_view linkpath) {
  Result<ParentRef> parent = ResolveParent(linkpath);
  if (!parent.ok()) {
    Record(TraceOp::kSymlink, linkpath, false);
    return parent.status();
  }
  Inode& dir = inodes_[static_cast<size_t>(parent->dir)];
  if (dir.entries.count(parent->leaf) > 0) {
    Record(TraceOp::kSymlink, linkpath, false);
    return Status::Error(Errc::kExists, std::string(linkpath) + ": file exists");
  }
  Inode node;
  node.type = NodeType::kSymlink;
  node.target = std::string(target);
  inodes_.push_back(std::move(node));
  inodes_[static_cast<size_t>(parent->dir)].entries[parent->leaf] =
      static_cast<int>(inodes_.size()) - 1;
  Record(TraceOp::kSymlink, linkpath, true);
  return Status::Ok();
}

void FileSystem::RemoveTree(int inode_id) {
  Inode& inode = inodes_[static_cast<size_t>(inode_id)];
  if (inode.type == NodeType::kDir) {
    for (auto& [name, child] : inode.entries) {
      RemoveTree(child);
    }
    inode.entries.clear();
  }
}

Status FileSystem::Remove(std::string_view path, bool recursive, bool force) {
  Result<ParentRef> parent = ResolveParent(path);
  if (!parent.ok()) {
    if (force && (parent.code() == Errc::kNoEnt)) {
      return Status::Ok();
    }
    Record(TraceOp::kUnlink, path, false);
    return parent.status();
  }
  Inode& dir = inodes_[static_cast<size_t>(parent->dir)];
  auto it = dir.entries.find(parent->leaf);
  if (it == dir.entries.end()) {
    if (force) {
      return Status::Ok();
    }
    Record(TraceOp::kUnlink, path, false);
    return Status::Error(Errc::kNoEnt, std::string(path) + ": no such file or directory");
  }
  Inode& victim = inodes_[static_cast<size_t>(it->second)];
  if (victim.type == NodeType::kDir) {
    if (!recursive) {
      Record(TraceOp::kUnlink, path, false);
      return Status::Error(Errc::kIsDir, std::string(path) + ": is a directory");
    }
    RemoveTree(it->second);
    Record(TraceOp::kRmdir, path, true);
  } else {
    Record(TraceOp::kUnlink, path, true);
  }
  dir.entries.erase(it);
  return Status::Ok();
}

Status FileSystem::RemoveEmptyDir(std::string_view path) {
  Result<int> node = ResolveToInode(path, /*follow_last=*/false);
  if (!node.ok()) {
    Record(TraceOp::kRmdir, path, false);
    return node.status();
  }
  Inode& inode = inodes_[static_cast<size_t>(*node)];
  if (inode.type != NodeType::kDir) {
    Record(TraceOp::kRmdir, path, false);
    return Status::Error(Errc::kNotDir, std::string(path) + ": not a directory");
  }
  if (!inode.entries.empty()) {
    Record(TraceOp::kRmdir, path, false);
    return Status::Error(Errc::kNotEmpty, std::string(path) + ": directory not empty");
  }
  Result<ParentRef> parent = ResolveParent(path);
  if (!parent.ok()) {
    Record(TraceOp::kRmdir, path, false);
    return parent.status();
  }
  inodes_[static_cast<size_t>(parent->dir)].entries.erase(parent->leaf);
  Record(TraceOp::kRmdir, path, true);
  return Status::Ok();
}

Status FileSystem::Rename(std::string_view from, std::string_view to) {
  Result<ParentRef> src = ResolveParent(from);
  if (!src.ok()) {
    Record(TraceOp::kRename, from, false);
    return src.status();
  }
  auto src_it = inodes_[static_cast<size_t>(src->dir)].entries.find(src->leaf);
  if (src_it == inodes_[static_cast<size_t>(src->dir)].entries.end()) {
    Record(TraceOp::kRename, from, false);
    return Status::Error(Errc::kNoEnt, std::string(from) + ": no such file or directory");
  }
  int moved = src_it->second;
  // If `to` is an existing directory, move into it (mv semantics).
  std::string dest(to);
  Result<int> to_node = ResolveToInode(to, /*follow_last=*/true);
  if (to_node.ok() && inodes_[static_cast<size_t>(*to_node)].type == NodeType::kDir) {
    dest = JoinPath(Absolutize(to, cwd_), BaseName(from));
  }
  Result<ParentRef> dst = ResolveParent(dest);
  if (!dst.ok()) {
    Record(TraceOp::kRename, dest, false);
    return dst.status();
  }
  inodes_[static_cast<size_t>(src->dir)].entries.erase(src->leaf);
  inodes_[static_cast<size_t>(dst->dir)].entries[dst->leaf] = moved;
  Record(TraceOp::kRename, dest, true);
  return Status::Ok();
}

Status FileSystem::CopyFile(std::string_view from, std::string_view to) {
  Result<std::string> content = ReadFile(from);
  if (!content.ok()) {
    return content.status();
  }
  // cp into a directory target keeps the source basename.
  std::string dest(to);
  Result<int> to_node = ResolveToInode(to, /*follow_last=*/true);
  if (to_node.ok() && inodes_[static_cast<size_t>(*to_node)].type == NodeType::kDir) {
    dest = JoinPath(Absolutize(to, cwd_), BaseName(from));
  }
  return WriteFile(dest, *content, /*append=*/false);
}

void FileSystem::SnapshotWalk(int inode_id, const std::string& path, Snapshot* out) const {
  const Inode& inode = inodes_[static_cast<size_t>(inode_id)];
  Entry entry;
  switch (inode.type) {
    case NodeType::kFile:
      entry.type = NodeType::kFile;
      entry.content = inode.content;
      break;
    case NodeType::kDir:
      entry.type = NodeType::kDir;
      break;
    case NodeType::kSymlink:
      entry.type = NodeType::kSymlink;
      entry.target = inode.target;
      break;
  }
  if (path != "/") {
    (*out)[path] = std::move(entry);
  }
  if (inode.type == NodeType::kDir) {
    for (const auto& [name, child] : inode.entries) {
      SnapshotWalk(child, JoinPath(path, name), out);
    }
  }
}

FileSystem::Snapshot FileSystem::TakeSnapshot() const {
  Snapshot out;
  SnapshotWalk(0, "/", &out);
  return out;
}

std::vector<std::string> FileSystem::DiffSnapshots(const Snapshot& before, const Snapshot& after) {
  std::vector<std::string> out;
  for (const auto& [path, entry] : before) {
    auto it = after.find(path);
    if (it == after.end()) {
      out.push_back("- " + path);
    } else if (!(it->second == entry)) {
      out.push_back("~ " + path);
    }
  }
  for (const auto& [path, entry] : after) {
    if (before.find(path) == before.end()) {
      std::string kind = entry.type == NodeType::kDir    ? "dir"
                         : entry.type == NodeType::kFile ? "file"
                                                         : "symlink";
      out.push_back("+ " + path + " (" + kind + ")");
    }
  }
  return out;
}

size_t FileSystem::LiveNodeCount() const {
  // Count reachable inodes from the root.
  size_t count = 0;
  std::vector<int> stack{0};
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    ++count;
    const Inode& inode = inodes_[static_cast<size_t>(id)];
    if (inode.type == NodeType::kDir) {
      for (const auto& [name, child] : inode.entries) {
        stack.push_back(child);
      }
    }
  }
  return count;
}

}  // namespace sash::fs

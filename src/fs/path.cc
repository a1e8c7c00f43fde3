#include "fs/path.h"

namespace sash::fs {

bool IsAbsolute(std::string_view path) { return !path.empty() && path.front() == '/'; }

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    if (i > start) {
      parts.emplace_back(path.substr(start, i - start));
    }
  }
  return parts;
}

std::string JoinPath(std::string_view base, std::string_view rel) {
  if (IsAbsolute(rel) || base.empty()) {
    return std::string(rel);
  }
  if (rel.empty()) {
    return std::string(base);
  }
  std::string out(base);
  if (out.back() != '/') {
    out += '/';
  }
  out += rel;
  return out;
}

std::string NormalizePath(std::string_view path) {
  // One pass, one string: `out` is the normalized prefix so far, and its
  // first `floor` bytes ("/", or a relative path's leading "../..") are
  // never popped by a "..".
  const bool absolute = IsAbsolute(path);
  std::string out;
  out.reserve(path.size() + 1);
  if (absolute) {
    out += '/';
  }
  size_t floor = out.size();
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    const size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    const std::string_view part = path.substr(start, i - start);
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (out.size() > floor) {
        const size_t slash = out.rfind('/');
        out.resize(slash == std::string::npos || slash < floor ? floor : slash);
        continue;
      }
      if (absolute) {
        continue;  // ".." at the root stays at the root.
      }
      // Relative paths keep leading "..".
    }
    if (!out.empty() && out.back() != '/') {
      out += '/';
    }
    out += part;
    if (part == "..") {
      floor = out.size();
    }
  }
  if (out.empty()) {
    out.push_back('.');
  }
  return out;
}

std::string DirName(std::string_view path) {
  std::string norm = NormalizePath(path);
  size_t pos = norm.rfind('/');
  if (pos == std::string::npos) {
    return ".";
  }
  norm.resize(pos == 0 ? 1 : pos);
  return norm;
}

std::string BaseName(std::string_view path) {
  std::string norm = NormalizePath(path);
  if (norm == "/") {
    return norm;
  }
  size_t pos = norm.rfind('/');
  if (pos != std::string::npos) {
    norm.erase(0, pos + 1);
  }
  return norm;
}

std::string Absolutize(std::string_view path, std::string_view cwd) {
  if (IsAbsolute(path)) {
    return NormalizePath(path);
  }
  return NormalizePath(JoinPath(cwd, path));
}

}  // namespace sash::fs

// Global thread-safe string interner producing 32-bit `Symbol` ids.
//
// The analyzer's hot loops (symbolic execution, spec dispatch, stream
// typing) traffic heavily in short recurring strings: variable names,
// command names, parameter names. Interning turns those into integer ids so
// map keys compare in one instruction and every symbol carries a cached
// 64-bit FNV-1a hash of its *content* (used by the state digests; content —
// not id — because intern ids depend on thread interleaving under the batch
// driver and digests must be stable across runs).
//
// Properties:
//   - Symbols are never freed; the table only grows. Scripts are finite and
//     names are drawn from script text, so the population is bounded by the
//     input. `Interner::size()` is printed as `hotpath.intern.size` by
//     `--stats` so growth is observable.
//   - The table is sharded into lock-striped segments selected by content
//     hash. Each segment publishes an open-addressed id index via release
//     stores, so `Intern` of an already-seen string and all of `Find` /
//     `str()` / `view()` / `hash()` take zero locks; only a genuine
//     insertion takes its segment's lock. Under the batch pool this is the
//     difference between every worker serializing on one mutex and workers
//     only meeting when two of them coin a new string whose hash lands in
//     the same stripe.
//   - Entries live in immutable slabs whose pointers are published with
//     release stores (ids stay dense and process-global across segments).
//   - The empty string is pre-interned as id 0, so a default-constructed
//     Symbol is valid and means "".
#ifndef SASH_UTIL_INTERN_H_
#define SASH_UTIL_INTERN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sash::util {

class Symbol {
 public:
  // The empty symbol (id 0, "").
  constexpr Symbol() = default;

  // Interns `text`, returning its (process-wide) symbol.
  static Symbol Intern(std::string_view text);

  // Non-inserting, lock-free lookup: the symbol for `text` if it was
  // interned before, std::nullopt otherwise. Lets probe-style callers (e.g.
  // spec dispatch on arbitrary runtime command names) avoid growing the
  // table with misses, and never contends with writers.
  static std::optional<Symbol> Find(std::string_view text);

  const std::string& str() const;
  std::string_view view() const { return str(); }
  // Cached FNV-1a hash of the string content (run-stable).
  uint64_t hash() const;

  uint32_t id() const { return id_; }
  bool empty() const { return id_ == 0; }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  // Orders by id (creation order), NOT lexicographically. Deterministic
  // within a process; do not use where cross-run ordering matters.
  friend bool operator<(Symbol a, Symbol b) { return a.id_ < b.id_; }

 private:
  explicit constexpr Symbol(uint32_t id) : id_(id) {}
  friend class Interner;

  uint32_t id_ = 0;
};

class Interner {
 public:
  // Number of distinct strings interned so far (>= 1: "" is pre-interned).
  static size_t size();
};

}  // namespace sash::util

namespace std {
template <>
struct hash<sash::util::Symbol> {
  size_t operator()(sash::util::Symbol s) const noexcept {
    // ids are small and dense; spread them for unordered containers.
    uint64_t x = s.id();
    x *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(x ^ (x >> 32));
  }
};
}  // namespace std

#endif  // SASH_UTIL_INTERN_H_

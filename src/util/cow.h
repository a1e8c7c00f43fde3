// Copy-on-write holder for the parts of a symbolic state that forks share.
//
// The symbolic engine forks a state on every unknown exit and every possible
// spec case; most forks then touch one or two parts (a binding, a fact, a
// note) and leave the rest as they were. A Cow<T> makes copying a part cost
// one reference-count increment whatever its size: copies share one T, and
// the first write through a shared holder clones it. An empty holder owns
// nothing and reads as a default-constructed T, so a fresh state allocates
// nothing until it is written.
//
// The pointer rule: `write()` on a shared holder replaces the T it points
// to, so a pointer, reference or iterator obtained from `get()` (or `*`,
// `->`) before a write to the same holder may refer to the old copy — still
// alive while another state shares it, but no longer this holder's. Copy the
// value out before writing (`SymValue v = *st.Lookup(x); st.Bind(y, v);`),
// never keep the pointer across the write.
//
// Not thread-safe: one engine run owns its states and their parts. Holders
// never cross threads, so the reference count is exact when `write()` reads
// it.
#ifndef SASH_UTIL_COW_H_
#define SASH_UTIL_COW_H_

#include <memory>

namespace sash::util {

template <typename T>
class Cow {
 public:
  const T& get() const { return ptr_ != nullptr ? *ptr_ : Empty(); }
  const T& operator*() const { return get(); }
  const T* operator->() const { return &get(); }

  // Mutable access: allocates the first T, clones a shared one.
  T& write() {
    if (ptr_ == nullptr) {
      ptr_ = std::make_shared<T>();
    } else if (ptr_.use_count() > 1) {
      ptr_ = std::make_shared<T>(*ptr_);
    }
    return *ptr_;
  }

 private:
  static const T& Empty() {
    static const T empty;
    return empty;
  }

  std::shared_ptr<T> ptr_;
};

}  // namespace sash::util

#endif  // SASH_UTIL_COW_H_

#include "util/intern.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <vector>

#include "util/hash.h"

namespace sash::util {
namespace {

struct Entry {
  std::string text;
  uint64_t content_hash = 0;
};

// Entries live in fixed-size slabs so `str()`/`hash()` can read them without
// a lock: a slab, once its pointer is release-published, is never moved, and
// an id is only handed out after its entry is fully constructed (the id then
// reaches other threads either via the segment index's release store or via
// ordinary program synchronization).
constexpr size_t kSlabBits = 12;
constexpr size_t kSlabSize = size_t{1} << kSlabBits;  // 4096 entries per slab
constexpr size_t kMaxSlabs = 1 << 12;                 // capacity ~16.7M symbols

// The id space stays global and dense (Symbol is a plain 32-bit index into
// the slabs) even though the *lookup* structure is sharded: segments race to
// fetch_add ids out of one counter, and whichever writer first needs a slab
// CAS-installs it.
struct SlabStore {
  std::atomic<Entry*> slabs[kMaxSlabs] = {};
  std::atomic<uint32_t> count{0};

  Entry* SlabFor(uint32_t id) {
    size_t slab = id >> kSlabBits;
    assert(slab < kMaxSlabs && "interner capacity exhausted");
    Entry* block = slabs[slab].load(std::memory_order_acquire);
    if (block == nullptr) {
      Entry* fresh = new Entry[kSlabSize];
      if (slabs[slab].compare_exchange_strong(block, fresh, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        block = fresh;
      } else {
        delete[] fresh;  // Another segment's writer won the race.
      }
    }
    return block;
  }
};

// Open-addressed id index for one segment. Slots hold id+1 (0 = empty) and
// transition empty -> occupied exactly once, with a release store, after the
// entry is fully built; readers probe with acquire loads and never see a
// partially constructed entry. The array is immutable in shape — growth
// builds a fresh larger array and release-publishes the pointer, while the
// outgrown array is retired (kept alive, never freed) so readers still
// probing it stay safe. Linear probing terminates because the writer rehashes
// before the load factor reaches 2/3, so every published array has empty
// slots.
struct Index {
  explicit Index(size_t capacity) : mask(capacity - 1), slots(capacity) {}
  const size_t mask;
  std::vector<std::atomic<uint32_t>> slots;  // Value-initialized to 0.
};

// One lock-striped segment. Strings map to segments by the top bits of their
// content hash (the probe sequence uses the low bits, so the two selections
// stay independent). alignas separates neighboring segments' mutexes and
// index pointers onto distinct cache lines — at -j8 every worker hammers
// these fields, and sharing a line would re-serialize what the sharding just
// split.
struct alignas(64) Segment {
  // Writer lock for genuine insertions only; every lookup — Intern of an
  // already-seen string, Find, str(), hash() — is lock-free.
  std::mutex mu;
  std::atomic<Index*> index{nullptr};
  std::vector<std::unique_ptr<Index>> owned;  // Live + retired index arrays.
  size_t used = 0;                            // Occupied slots; guarded by mu.
};

constexpr size_t kSegmentBits = 4;
constexpr size_t kSegments = size_t{1} << kSegmentBits;  // 16 lock stripes
constexpr size_t kInitialIndexSlots = 256;               // Per segment.

struct Table {
  SlabStore store;
  Segment segments[kSegments];

  Table() {
    // Pre-intern "" as id 0 so the default Symbol is valid.
    uint32_t id = Intern("", Fnv1a(""));
    (void)id;
    assert(id == 0);
  }

  Segment& SegmentFor(uint64_t hash) { return segments[hash >> (64 - kSegmentBits)]; }

  const Entry& EntryFor(uint32_t id) {
    Entry* slab = store.slabs[id >> kSlabBits].load(std::memory_order_acquire);
    return slab[id & (kSlabSize - 1)];
  }

  // Lock-free probe: id+1 of the entry matching (text, hash), or 0. Safe
  // concurrently with insertions and growth in the same segment.
  uint32_t Probe(Segment& seg, std::string_view text, uint64_t hash) {
    Index* idx = seg.index.load(std::memory_order_acquire);
    if (idx == nullptr) {
      return 0;
    }
    for (size_t i = hash & idx->mask;; i = (i + 1) & idx->mask) {
      uint32_t v = idx->slots[i].load(std::memory_order_acquire);
      if (v == 0) {
        return 0;
      }
      const Entry& e = EntryFor(v - 1);
      if (e.content_hash == hash && e.text == text) {
        return v;
      }
    }
  }

  // Requires seg.mu held. Returns the index to insert into, growing (and
  // republishing) first when the next insertion would cross 2/3 load.
  Index* EnsureRoom(Segment& seg) {
    Index* idx = seg.index.load(std::memory_order_relaxed);
    if (idx != nullptr && (seg.used + 1) * 3 <= (idx->mask + 1) * 2) {
      return idx;
    }
    size_t capacity = idx == nullptr ? kInitialIndexSlots : (idx->mask + 1) * 2;
    auto fresh = std::make_unique<Index>(capacity);
    if (idx != nullptr) {
      for (size_t i = 0; i <= idx->mask; ++i) {
        uint32_t v = idx->slots[i].load(std::memory_order_relaxed);
        if (v == 0) {
          continue;
        }
        size_t j = EntryFor(v - 1).content_hash & fresh->mask;
        while (fresh->slots[j].load(std::memory_order_relaxed) != 0) {
          j = (j + 1) & fresh->mask;
        }
        // Relaxed is enough: the release publication of the index pointer
        // below orders every slot store before any reader's acquire load.
        fresh->slots[j].store(v, std::memory_order_relaxed);
      }
    }
    Index* raw = fresh.get();
    seg.owned.push_back(std::move(fresh));  // The outgrown array is retired, not freed.
    seg.index.store(raw, std::memory_order_release);
    return raw;
  }

  uint32_t Intern(std::string_view text, uint64_t hash) {
    Segment& seg = SegmentFor(hash);
    // Fast path: an already-seen string costs a hash and a lock-free probe.
    if (uint32_t v = Probe(seg, text, hash)) {
      return v - 1;
    }
    std::lock_guard<std::mutex> lock(seg.mu);
    // Re-probe under the lock: a racing writer may have inserted it.
    if (uint32_t v = Probe(seg, text, hash)) {
      return v - 1;
    }
    Index* idx = EnsureRoom(seg);
    uint32_t id = store.count.fetch_add(1, std::memory_order_acq_rel);
    Entry& e = *(store.SlabFor(id) + (id & (kSlabSize - 1)));
    e.text.assign(text);
    e.content_hash = hash;
    size_t i = hash & idx->mask;
    while (idx->slots[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & idx->mask;
    }
    // The release store publishes the fully built entry to lock-free readers.
    idx->slots[i].store(id + 1, std::memory_order_release);
    ++seg.used;
    return id;
  }
};

Table& table() {
  static Table* t = new Table();  // intentionally leaked: symbols outlive statics
  return *t;
}

}  // namespace

Symbol Symbol::Intern(std::string_view text) {
  Table& t = table();
  return Symbol(t.Intern(text, Fnv1a(text)));
}

std::optional<Symbol> Symbol::Find(std::string_view text) {
  Table& t = table();
  uint64_t hash = Fnv1a(text);
  uint32_t v = t.Probe(t.SegmentFor(hash), text, hash);
  if (v == 0) {
    return std::nullopt;
  }
  return Symbol(v - 1);
}

const std::string& Symbol::str() const { return table().EntryFor(id_).text; }

uint64_t Symbol::hash() const { return table().EntryFor(id_).content_hash; }

size_t Interner::size() {
  return table().store.count.load(std::memory_order_acquire);
}

}  // namespace sash::util

#include "regex/regex.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "regex/parser.h"
#include "util/hash.h"

namespace sash::regex {

namespace {

// See PatternCache in regex.h. Keys are domain-hashed (a domain byte salted
// into the content hash) because different constructors give the same key
// bytes different meanings: "p", "s", "g" and "l" key source text, the
// derived domains (see DerivedKey) key operand language ids. Values are Regex
// copies (copying shares the LazyDfa) or, for inclusion, a verdict.
//
// Structure (the interner's lock-free idiom, with Regex payloads): entries
// are append-only in fixed slabs, reached through an open-addressed index of
// atomic slots holding entry-id+1. A slot is release-stored only after its
// entry (key string + Regex copy) is fully built, so a lock-free reader that
// acquires the slot sees a complete entry; growth builds a larger array and
// release-publishes the pointer, retiring (never freeing) the outgrown one
// under readers still probing it. Clear() republishes an empty index and
// retires the old slabs the same way — entries a concurrent reader may still
// hold stay alive for the process lifetime (Clear is a test/bench hook, not
// a hot-path operation).
struct PatternEntry {
  std::string key;  // domain byte + ':' + pattern (exact-match confirmation).
  uint64_t hash = 0;
  std::optional<Regex> regex;  // Every domain but kIncludedIn.
  bool verdict = false;        // kIncludedIn only.
};

struct PatternIndex {
  explicit PatternIndex(size_t capacity) : mask(capacity - 1), slots(capacity) {}
  const size_t mask;
  std::vector<std::atomic<uint32_t>> slots;  // entry id + 1; 0 = empty.
};

// One cache generation: the index, the entry slabs, and the entry count.
// Clear() swaps in a fresh generation rather than mutating this one, so a
// reader that acquired a generation pointer always sees an internally
// consistent (index, slabs, count) world no matter how Clear races with it.
struct PatternStore {
  static constexpr size_t kMaxEntries = 8192;
  static constexpr size_t kSlabSize = 256;
  static constexpr size_t kMaxSlabs = kMaxEntries / kSlabSize;
  static constexpr size_t kInitialSlots = 512;

  std::atomic<PatternIndex*> index{nullptr};
  std::atomic<PatternEntry*> slabs[kMaxSlabs] = {};
  std::atomic<uint32_t> count{0};
  // Outgrown index arrays and all slabs; writer-guarded, freed only when the
  // generation itself is (i.e. never before every reader is done).
  std::vector<std::unique_ptr<PatternIndex>> owned_indexes;
  std::vector<std::unique_ptr<PatternEntry[]>> owned_slabs;

  PatternEntry& EntryFor(uint32_t id) {
    return slabs[id / kSlabSize].load(std::memory_order_acquire)[id % kSlabSize];
  }

  static uint64_t KeyHash(char domain, std::string_view pattern) {
    char d[2] = {domain, ':'};
    return util::Fnv1a(pattern, util::Fnv1a(std::string_view(d, 2)));
  }

  static bool KeyEquals(const PatternEntry& e, char domain, std::string_view pattern) {
    return e.key.size() == pattern.size() + 2 && e.key[0] == domain &&
           std::string_view(e.key).substr(2) == pattern;
  }

  // Lock-free: entry id + 1 of the match, or 0.
  uint32_t Probe(char domain, std::string_view pattern, uint64_t hash) {
    PatternIndex* idx = index.load(std::memory_order_acquire);
    if (idx == nullptr) {
      return 0;
    }
    for (size_t i = hash & idx->mask;; i = (i + 1) & idx->mask) {
      uint32_t v = idx->slots[i].load(std::memory_order_acquire);
      if (v == 0) {
        return 0;
      }
      PatternEntry& e = EntryFor(v - 1);
      if (e.hash == hash && KeyEquals(e, domain, pattern)) {
        return v;
      }
    }
  }

  // Requires the writer lock. Grows when the next insert would cross 2/3 load.
  PatternIndex* EnsureRoom() {
    PatternIndex* idx = index.load(std::memory_order_relaxed);
    uint32_t used = count.load(std::memory_order_relaxed);
    if (idx != nullptr && (used + 1) * 3 <= (idx->mask + 1) * 2) {
      return idx;
    }
    size_t capacity = idx == nullptr ? kInitialSlots : (idx->mask + 1) * 2;
    auto fresh = std::make_unique<PatternIndex>(capacity);
    if (idx != nullptr) {
      for (size_t i = 0; i <= idx->mask; ++i) {
        uint32_t v = idx->slots[i].load(std::memory_order_relaxed);
        if (v == 0) {
          continue;
        }
        size_t j = EntryFor(v - 1).hash & fresh->mask;
        while (fresh->slots[j].load(std::memory_order_relaxed) != 0) {
          j = (j + 1) & fresh->mask;
        }
        fresh->slots[j].store(v, std::memory_order_relaxed);
      }
    }
    PatternIndex* raw = fresh.get();
    owned_indexes.push_back(std::move(fresh));
    index.store(raw, std::memory_order_release);
    return raw;
  }
};

struct PatternCacheImpl {
  std::mutex mu;  // Writers (Store/Clear) only.
  std::atomic<PatternStore*> store;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  // Every generation ever published, the live one last; guarded by mu. Old
  // generations are retired, not freed: a reader may still be probing one.
  std::vector<std::unique_ptr<PatternStore>> generations;

  PatternCacheImpl() {
    generations.push_back(std::make_unique<PatternStore>());
    store.store(generations.back().get(), std::memory_order_release);
  }
};

PatternCacheImpl& pattern_cache() {
  static PatternCacheImpl* c = new PatternCacheImpl();
  return *c;
}

// Lock-free: the live generation's entry for (domain, key), or null. Entries
// are never freed, so the pointer stays valid for the process lifetime.
const PatternEntry* PatternCacheFind(char domain, std::string_view key) {
  PatternCacheImpl& c = pattern_cache();
  PatternStore& s = *c.store.load(std::memory_order_acquire);
  uint32_t v = s.Probe(domain, key, PatternStore::KeyHash(domain, key));
  if (v == 0) {
    c.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  c.hits.fetch_add(1, std::memory_order_relaxed);
  return &s.EntryFor(v - 1);
}

std::optional<Regex> PatternCacheLookup(char domain, std::string_view key) {
  const PatternEntry* e = PatternCacheFind(domain, key);
  if (e == nullptr) {
    return std::nullopt;
  }
  return *e->regex;
}

// Inserts (domain, key) and lets `fill` set the payload before the entry is
// published. A no-op when the key is already there or the store is full.
template <typename Fill>
void PatternCacheInsert(char domain, std::string_view key, Fill fill) {
  PatternCacheImpl& c = pattern_cache();
  uint64_t hash = PatternStore::KeyHash(domain, key);
  std::lock_guard<std::mutex> lock(c.mu);
  // The live generation only changes under mu, which we hold.
  PatternStore& s = *c.store.load(std::memory_order_relaxed);
  if (s.Probe(domain, key, hash) != 0) {
    return;  // A racing compiler of the same key beat us; theirs wins.
  }
  uint32_t id = s.count.load(std::memory_order_relaxed);
  if (id >= PatternStore::kMaxEntries) {
    return;  // Full: later keys compute uncached rather than evicting.
  }
  PatternIndex* idx = s.EnsureRoom();
  PatternEntry* slab = s.slabs[id / PatternStore::kSlabSize].load(std::memory_order_relaxed);
  if (slab == nullptr) {
    slab = new PatternEntry[PatternStore::kSlabSize];
    s.owned_slabs.emplace_back(slab);
    s.slabs[id / PatternStore::kSlabSize].store(slab, std::memory_order_release);
  }
  PatternEntry& e = slab[id % PatternStore::kSlabSize];
  e.key.reserve(key.size() + 2);
  e.key = domain;
  e.key += ':';
  e.key += key;
  e.hash = hash;
  fill(e);
  size_t i = hash & idx->mask;
  while (idx->slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & idx->mask;
  }
  // Publish: count first (so Size() never exceeds constructed entries seen
  // through the index), then the slot's release store hands the entry to
  // lock-free readers.
  s.count.store(id + 1, std::memory_order_release);
  idx->slots[i].store(id + 1, std::memory_order_release);
}

void PatternCacheStore(char domain, std::string_view key, const Regex& regex) {
  PatternCacheInsert(domain, key, [&regex](PatternEntry& e) { e.regex = regex; });
}

// Language ids count up from 1 and are never reused.
std::atomic<uint64_t> next_language_id{1};

// Domains of languages derived from other languages, and of inclusion
// verdicts. Their keys are the operands' language ids (Regex::LazyDfa::id),
// which are never reused, so a key names one result for the whole process
// even after an operand is gone.
constexpr char kConcat = 'c';
constexpr char kIntersect = 'i';
constexpr char kComplement = '!';
constexpr char kIncludedIn = '<';

// The operand ids as LEB128 varints: a short key that needs no allocation to
// probe (a pair of ids below 2^35 takes at most ten bytes).
class DerivedKey {
 public:
  explicit DerivedKey(uint64_t a) { Put(a); }
  DerivedKey(uint64_t a, uint64_t b) {
    Put(a);
    Put(b);
  }
  std::string_view view() const { return std::string_view(buf_, len_); }

 private:
  void Put(uint64_t v) {
    while (v >= 0x80) {
      buf_[len_++] = static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    buf_[len_++] = static_cast<char>(v);
  }
  char buf_[20];
  size_t len_ = 0;
};

}  // namespace

uint64_t PatternCache::Hits() {
  return pattern_cache().hits.load(std::memory_order_relaxed);
}
uint64_t PatternCache::Misses() {
  return pattern_cache().misses.load(std::memory_order_relaxed);
}
size_t PatternCache::Size() {
  PatternCacheImpl& c = pattern_cache();
  return c.store.load(std::memory_order_acquire)->count.load(std::memory_order_acquire);
}
void PatternCache::Clear() {
  PatternCacheImpl& c = pattern_cache();
  std::lock_guard<std::mutex> lock(c.mu);
  // Swap in a fresh empty generation; the outgoing one is retired intact so
  // readers that already acquired it finish their probes on valid memory.
  c.generations.push_back(std::make_unique<PatternStore>());
  c.store.store(c.generations.back().get(), std::memory_order_release);
}

// Cache hook for glob.cc (not part of the public header).
std::optional<Regex> PatternCacheLookupGlob(std::string_view pattern) {
  return PatternCacheLookup('g', pattern);
}
void PatternCacheStoreGlob(std::string_view pattern, const Regex& regex) {
  PatternCacheStore('g', pattern, regex);
}

struct Regex::LazyDfa {
  const uint64_t id = next_language_id.fetch_add(1, std::memory_order_relaxed);
  std::once_flag once;  // Run by the DFA constructor, or by the first dfa().
  std::optional<Dfa> dfa;
};

Regex::Regex(std::string pattern, NodePtr ast)
    : pattern_(std::move(pattern)), ast_(std::move(ast)), lazy_(std::make_shared<LazyDfa>()) {}

Regex::Regex(std::string pattern, Dfa dfa)
    : pattern_(std::move(pattern)), lazy_(std::make_shared<LazyDfa>()) {
  std::call_once(lazy_->once, [&] { lazy_->dfa = std::move(dfa); });
}

std::optional<Regex> Regex::FromPattern(std::string_view pattern, std::string* error_out) {
  if (std::optional<Regex> cached = PatternCacheLookup('p', pattern)) {
    return cached;
  }
  ParseResult result = ParsePattern(pattern);
  if (!result.ok()) {
    if (error_out != nullptr) {
      *error_out = "at offset " + std::to_string(result.error->offset) + ": " +
                   result.error->message;
    }
    return std::nullopt;  // Errors are not cached (rare, and carry messages).
  }
  Regex regex(std::string(pattern), std::move(result.node));
  PatternCacheStore('p', pattern, regex);
  return regex;
}

std::optional<Regex> Regex::FromSearchPattern(std::string_view pattern, std::string* error_out) {
  if (std::optional<Regex> cached = PatternCacheLookup('s', pattern)) {
    return cached;
  }
  bool anchor_start = false;
  bool anchor_end = false;
  std::string_view body = pattern;
  if (!body.empty() && body.front() == '^') {
    anchor_start = true;
    body.remove_prefix(1);
  }
  if (!body.empty() && body.back() == '$' && (body.size() < 2 || body[body.size() - 2] != '\\')) {
    anchor_end = true;
    body.remove_suffix(1);
  }
  ParseResult result = ParsePattern(body);
  if (!result.ok()) {
    if (error_out != nullptr) {
      *error_out = "at offset " + std::to_string(result.error->offset) + ": " +
                   result.error->message;
    }
    return std::nullopt;
  }
  NodePtr any = MakeStar(MakeChars(CharSet::AnyExceptNewline()));
  NodePtr node = result.node;
  if (!anchor_start) {
    node = MakeConcat2(any, std::move(node));
  }
  if (!anchor_end) {
    node = MakeConcat2(std::move(node), any);
  }
  std::string display = ToPattern(node);
  Regex regex(std::move(display), std::move(node));
  PatternCacheStore('s', pattern, regex);
  return regex;
}

Regex Regex::Literal(std::string_view text) {
  if (std::optional<Regex> cached = PatternCacheLookup('l', text)) {
    return *cached;
  }
  Regex regex = FromAst(MakeLiteral(text));
  PatternCacheStore('l', text, regex);
  return regex;
}

// The three constant languages are one process-wide value each (never
// freed, like the cache), so their DFAs are built once.
Regex Regex::AnyLine() {
  static const Regex* any = new Regex(".*", MakeStar(MakeChars(CharSet::AnyExceptNewline())));
  return *any;
}

Regex Regex::Nothing() {
  static const Regex* nothing = new Regex("[]", MakeEmpty());
  return *nothing;
}

Regex Regex::Epsilon() {
  static const Regex* epsilon = new Regex("()", MakeEpsilon());
  return *epsilon;
}

Regex Regex::FromAst(NodePtr node) {
  std::string pattern = ToPattern(node);
  return Regex(std::move(pattern), std::move(node));
}

const Dfa& Regex::dfa() const {
  std::call_once(lazy_->once, [this] { lazy_->dfa = Dfa::FromAst(ast_).Minimize(); });
  return *lazy_->dfa;
}

bool Regex::Matches(std::string_view input) const { return dfa().Accepts(input); }

Regex Regex::Intersect(const Regex& other) const {
  DerivedKey key(lazy_->id, other.lazy_->id);
  if (std::optional<Regex> cached = PatternCacheLookup(kIntersect, key.view())) {
    return *cached;
  }
  Dfa product = dfa().Intersect(other.dfa()).Minimize();
  Regex result("(" + pattern_ + ")&(" + other.pattern_ + ")", std::move(product));
  PatternCacheStore(kIntersect, key.view(), result);
  return result;
}

Regex Regex::Union(const Regex& other) const {
  if (ast_ != nullptr && other.ast_ != nullptr) {
    NodePtr node = MakeAlt2(ast_, other.ast_);
    return FromAst(std::move(node));
  }
  Dfa product = dfa().Union(other.dfa()).Minimize();
  std::string pattern = "(" + pattern_ + ")|(" + other.pattern_ + ")";
  return Regex(std::move(pattern), std::move(product));
}

Regex Regex::Concat(const Regex& other) const {
  DerivedKey key(lazy_->id, other.lazy_->id);
  if (std::optional<Regex> cached = PatternCacheLookup(kConcat, key.view())) {
    return *cached;
  }
  // When a side exists only as an automaton (e.g. a complement), compose at
  // the NFA level and re-determinize.
  Regex result =
      ast_ != nullptr && other.ast_ != nullptr
          ? FromAst(MakeConcat2(ast_, other.ast_))
          : Regex("(" + pattern_ + ")(" + other.pattern_ + ")",
                  Dfa::FromNfa(ConcatNfa(dfa().ToNfa(), other.dfa().ToNfa())).Minimize());
  PatternCacheStore(kConcat, key.view(), result);
  return result;
}

Regex Regex::Complement() const {
  DerivedKey key(lazy_->id);
  if (std::optional<Regex> cached = PatternCacheLookup(kComplement, key.view())) {
    return *cached;
  }
  Regex result("!(" + pattern_ + ")", dfa().Complement().Minimize());
  PatternCacheStore(kComplement, key.view(), result);
  return result;
}

Regex Regex::Star() const {
  if (ast_ != nullptr) {
    return FromAst(MakeStar(ast_));
  }
  Dfa result = Dfa::FromNfa(StarNfa(dfa().ToNfa())).Minimize();
  return Regex("(" + pattern_ + ")*", std::move(result));
}

bool Regex::IsEmptyLanguage() const { return dfa().IsEmptyLanguage(); }

bool Regex::IsUniversal() const { return dfa().IsUniversal(); }

bool Regex::IncludedIn(const Regex& other) const {
  DerivedKey key(lazy_->id, other.lazy_->id);
  if (const PatternEntry* e = PatternCacheFind(kIncludedIn, key.view())) {
    return e->verdict;
  }
  bool included = dfa().IncludedIn(other.dfa());
  PatternCacheInsert(kIncludedIn, key.view(), [included](PatternEntry& e) { e.verdict = included; });
  return included;
}

// Two memoized inclusions, so each direction is decided once per pair.
bool Regex::EquivalentTo(const Regex& other) const {
  return IncludedIn(other) && other.IncludedIn(*this);
}

std::optional<std::string> Regex::Witness() const { return dfa().ShortestWitness(); }

std::vector<std::string> Regex::Samples(size_t limit) const { return dfa().SampleStrings(limit); }

}  // namespace sash::regex

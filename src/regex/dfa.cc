#include "regex/dfa.h"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>

namespace sash::regex {

ByteClasses::ByteClasses() { class_of_.fill(0); }

void ByteClasses::Refine(const CharSet& set) {
  // Split every class into (class ∩ set) and (class \ set).
  std::map<std::pair<int, bool>, int> renumber;
  std::array<int16_t, 256> next{};
  int count = 0;
  for (int c = 0; c < 256; ++c) {
    std::pair<int, bool> key{class_of_[static_cast<size_t>(c)],
                             set.Contains(static_cast<unsigned char>(c))};
    auto it = renumber.find(key);
    if (it == renumber.end()) {
      it = renumber.emplace(key, count++).first;
    }
    next[static_cast<size_t>(c)] = static_cast<int16_t>(it->second);
  }
  class_of_ = next;
  num_classes_ = count;
}

ByteClasses ByteClasses::Merge(const ByteClasses& a, const ByteClasses& b) {
  ByteClasses out;
  std::map<std::pair<int, int>, int> renumber;
  int count = 0;
  for (int c = 0; c < 256; ++c) {
    std::pair<int, int> key{a.class_of_[static_cast<size_t>(c)],
                            b.class_of_[static_cast<size_t>(c)]};
    auto it = renumber.find(key);
    if (it == renumber.end()) {
      it = renumber.emplace(key, count++).first;
    }
    out.class_of_[static_cast<size_t>(c)] = static_cast<int16_t>(it->second);
  }
  out.num_classes_ = count;
  return out;
}

unsigned char ByteClasses::Representative(int cls) const {
  for (int c = 0; c < 256; ++c) {
    if (class_of_[static_cast<size_t>(c)] == cls) {
      return static_cast<unsigned char>(c);
    }
  }
  return 0;
}

namespace {

// ε-closure of `states` (sorted, deduplicated in-place).
void EpsilonClosure(const Nfa& nfa, std::vector<int>* states) {
  std::vector<int> stack(*states);
  std::vector<bool> seen(nfa.size(), false);
  for (int s : stack) {
    seen[static_cast<size_t>(s)] = true;
  }
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (int t : nfa.states[static_cast<size_t>(s)].epsilon) {
      if (!seen[static_cast<size_t>(t)]) {
        seen[static_cast<size_t>(t)] = true;
        states->push_back(t);
        stack.push_back(t);
      }
    }
  }
  std::sort(states->begin(), states->end());
}

// Picks a printable representative byte for a class when one exists, so that
// witness strings shown in diagnostics are readable.
unsigned char PreferredRepresentative(const ByteClasses& classes, int cls) {
  for (int c = 'a'; c <= 'z'; ++c) {
    if (classes.ClassOf(static_cast<unsigned char>(c)) == cls) {
      return static_cast<unsigned char>(c);
    }
  }
  for (int c = 0x20; c <= 0x7e; ++c) {
    if (classes.ClassOf(static_cast<unsigned char>(c)) == cls) {
      return static_cast<unsigned char>(c);
    }
  }
  return classes.Representative(cls);
}

}  // namespace

Dfa Dfa::FromNfa(const Nfa& nfa) {
  Dfa dfa;
  for (const NfaState& st : nfa.states) {
    for (const NfaTransition& tr : st.transitions) {
      dfa.classes_.Refine(tr.on);
    }
  }
  const int num_classes = dfa.classes_.NumClasses();

  std::map<std::vector<int>, int> ids;
  std::vector<std::vector<int>> subsets;
  auto intern = [&](std::vector<int> subset) {
    auto it = ids.find(subset);
    if (it != ids.end()) {
      return it->second;
    }
    int id = static_cast<int>(subsets.size());
    ids.emplace(subset, id);
    subsets.push_back(std::move(subset));
    dfa.accepting_.push_back(false);
    return id;
  };

  std::vector<int> start_set{nfa.start};
  EpsilonClosure(nfa, &start_set);
  dfa.start_ = intern(std::move(start_set));

  std::deque<int> work{dfa.start_};
  std::vector<bool> processed;
  while (!work.empty()) {
    int id = work.front();
    work.pop_front();
    if (static_cast<size_t>(id) < processed.size() && processed[static_cast<size_t>(id)]) {
      continue;
    }
    if (static_cast<size_t>(id) >= processed.size()) {
      processed.resize(subsets.size(), false);
    }
    processed[static_cast<size_t>(id)] = true;

    const std::vector<int> subset = subsets[static_cast<size_t>(id)];
    dfa.accepting_[static_cast<size_t>(id)] =
        std::binary_search(subset.begin(), subset.end(), nfa.accept);

    dfa.transitions_.resize(subsets.size() * static_cast<size_t>(num_classes), -1);
    for (int cls = 0; cls < num_classes; ++cls) {
      unsigned char rep = dfa.classes_.Representative(cls);
      std::vector<int> next;
      for (int s : subset) {
        for (const NfaTransition& tr : nfa.states[static_cast<size_t>(s)].transitions) {
          if (tr.on.Contains(rep)) {
            next.push_back(tr.target);
          }
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      EpsilonClosure(nfa, &next);
      int target = intern(std::move(next));
      dfa.transitions_.resize(subsets.size() * static_cast<size_t>(num_classes), -1);
      dfa.transitions_[static_cast<size_t>(id) * num_classes + cls] = target;
      if (static_cast<size_t>(target) >= processed.size() ||
          !processed[static_cast<size_t>(target)]) {
        work.push_back(target);
      }
    }
  }
  // Acceptance for states interned but processed later was set during their
  // own processing; states never processed cannot exist (every interned state
  // is enqueued). Finalize.
  dfa.ComputeStateSummaries();
  return dfa;
}

Dfa Dfa::FromAst(const NodePtr& node) { return FromNfa(CompileToNfa(node)); }

bool Dfa::Accepts(std::string_view input) const {
  int state = start_;
  for (unsigned char c : input) {
    state = Step(state, c);
  }
  return accepting_[static_cast<size_t>(state)];
}

bool Dfa::AcceptsLine(std::string_view line) const {
  if (steps_every_byte_) {
    return Accepts(line);
  }
  const char* p = line.data();
  const char* const end = p + line.size();
  int state = start_;
  for (;;) {
    const LineExits* exits = &line_exits_[static_cast<size_t>(state)];
    while (exits->count == LineExits::kStep) {
      if (p == end) {
        return accepting_[static_cast<size_t>(state)];
      }
      state = Step(state, static_cast<unsigned char>(*p++));
      exits = &line_exits_[static_cast<size_t>(state)];
    }
    if (exits->count == 0) {
      return accepting_[static_cast<size_t>(state)];
    }
    // Every byte but the exits loops back to `state`: skip to the next exit
    // (unused slots repeat bytes[0], so one loop serves one to three exits).
    const char b0 = static_cast<char>(exits->bytes[0]);
    const char b1 = static_cast<char>(exits->bytes[1]);
    const char b2 = static_cast<char>(exits->bytes[2]);
    while (p != end && *p != b0 && *p != b1 && *p != b2) {
      ++p;
    }
    if (p == end) {
      return accepting_[static_cast<size_t>(state)];
    }
    state = Step(state, static_cast<unsigned char>(*p++));
  }
}

std::optional<std::string> Dfa::LineExitBytes(int state) const {
  const LineExits& exits = line_exits_[static_cast<size_t>(state)];
  if (exits.count == LineExits::kStep) {
    return std::nullopt;
  }
  std::string bytes(exits.bytes.begin(), exits.bytes.begin() + exits.count);
  std::sort(bytes.begin(), bytes.end(), [](char a, char b) {
    return static_cast<unsigned char>(a) < static_cast<unsigned char>(b);
  });
  return bytes;
}

bool Dfa::IsEmptyLanguage() const { return dead_[static_cast<size_t>(start_)]; }

bool Dfa::IsUniversal() const { return Complement().IsEmptyLanguage(); }

Dfa Dfa::Complement() const {
  Dfa out = *this;
  for (size_t i = 0; i < out.accepting_.size(); ++i) {
    out.accepting_[i] = !out.accepting_[i];
  }
  out.ComputeStateSummaries();
  return out;
}

Dfa Dfa::Intersect(const Dfa& other) const { return Product(*this, other, ProductMode::kIntersect); }

Dfa Dfa::Union(const Dfa& other) const { return Product(*this, other, ProductMode::kUnion); }

Dfa Dfa::Difference(const Dfa& other) const {
  return Product(*this, other, ProductMode::kDifference);
}

Dfa Dfa::Product(const Dfa& a, const Dfa& b, ProductMode mode) {
  Dfa out;
  out.classes_ = ByteClasses::Merge(a.classes_, b.classes_);
  const int num_classes = out.classes_.NumClasses();

  std::map<std::pair<int, int>, int> ids;
  std::vector<std::pair<int, int>> pairs;
  auto intern = [&](std::pair<int, int> pair) {
    auto it = ids.find(pair);
    if (it != ids.end()) {
      return it->second;
    }
    int id = static_cast<int>(pairs.size());
    ids.emplace(pair, id);
    pairs.push_back(pair);
    bool acc_a = a.accepting_[static_cast<size_t>(pair.first)];
    bool acc_b = b.accepting_[static_cast<size_t>(pair.second)];
    bool acc = false;
    switch (mode) {
      case ProductMode::kIntersect:
        acc = acc_a && acc_b;
        break;
      case ProductMode::kUnion:
        acc = acc_a || acc_b;
        break;
      case ProductMode::kDifference:
        acc = acc_a && !acc_b;
        break;
    }
    out.accepting_.push_back(acc);
    return id;
  };

  out.start_ = intern({a.start_, b.start_});
  std::deque<int> work{out.start_};
  size_t processed = 0;
  while (!work.empty()) {
    int id = work.front();
    work.pop_front();
    if (static_cast<size_t>(id) < processed) {
      continue;
    }
    processed = static_cast<size_t>(id) + 1;
    std::pair<int, int> pair = pairs[static_cast<size_t>(id)];
    out.transitions_.resize(pairs.size() * static_cast<size_t>(num_classes), -1);
    for (int cls = 0; cls < num_classes; ++cls) {
      unsigned char rep = out.classes_.Representative(cls);
      int na = a.Step(pair.first, rep);
      int nb = b.Step(pair.second, rep);
      int target = intern({na, nb});
      out.transitions_.resize(pairs.size() * static_cast<size_t>(num_classes), -1);
      out.transitions_[static_cast<size_t>(id) * num_classes + cls] = target;
      if (static_cast<size_t>(target) >= processed && target != id) {
        work.push_back(target);
      }
    }
  }
  out.ComputeStateSummaries();
  return out;
}

bool Dfa::IncludedIn(const Dfa& other) const {
  // L(this) ⊆ L(other) iff no reachable product state accepts in `this` but
  // not in `other`.
  ByteClasses merged = ByteClasses::Merge(classes_, other.classes_);
  const int num_classes = merged.NumClasses();
  std::map<std::pair<int, int>, bool> seen;
  std::deque<std::pair<int, int>> work;
  std::pair<int, int> start{start_, other.start_};
  seen[start] = true;
  work.push_back(start);
  while (!work.empty()) {
    auto [sa, sb] = work.front();
    work.pop_front();
    if (accepting_[static_cast<size_t>(sa)] && !other.accepting_[static_cast<size_t>(sb)]) {
      return false;
    }
    for (int cls = 0; cls < num_classes; ++cls) {
      unsigned char rep = merged.Representative(cls);
      std::pair<int, int> next{Step(sa, rep), other.Step(sb, rep)};
      if (!seen[next]) {
        seen[next] = true;
        work.push_back(next);
      }
    }
  }
  return true;
}

bool Dfa::EquivalentTo(const Dfa& other) const {
  return IncludedIn(other) && other.IncludedIn(*this);
}

Dfa Dfa::Minimize() const {
  // Moore's partition-refinement algorithm. Our automata are small (regular
  // types over a handful of byte classes), so the simpler quadratic algorithm
  // is preferable to Hopcroft's for clarity.
  const int n = NumStates();
  const int num_classes = classes_.NumClasses();
  std::vector<int> block(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    block[static_cast<size_t>(s)] = accepting_[static_cast<size_t>(s)] ? 1 : 0;
  }
  int num_blocks = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    // Signature of a state: (block, block of each successor).
    std::map<std::vector<int>, int> sig_ids;
    std::vector<int> next_block(static_cast<size_t>(n));
    int count = 0;
    for (int s = 0; s < n; ++s) {
      std::vector<int> sig;
      sig.reserve(static_cast<size_t>(num_classes) + 1);
      sig.push_back(block[static_cast<size_t>(s)]);
      for (int cls = 0; cls < num_classes; ++cls) {
        sig.push_back(block[static_cast<size_t>(
            transitions_[static_cast<size_t>(s) * num_classes + cls])]);
      }
      auto it = sig_ids.find(sig);
      if (it == sig_ids.end()) {
        it = sig_ids.emplace(std::move(sig), count++).first;
      }
      next_block[static_cast<size_t>(s)] = it->second;
    }
    if (count != num_blocks) {
      changed = true;
    }
    num_blocks = count;
    block = std::move(next_block);
  }

  Dfa out;
  out.classes_ = classes_;
  out.accepting_.assign(static_cast<size_t>(num_blocks), false);
  out.transitions_.assign(static_cast<size_t>(num_blocks) * num_classes, -1);
  for (int s = 0; s < n; ++s) {
    int b = block[static_cast<size_t>(s)];
    out.accepting_[static_cast<size_t>(b)] = accepting_[static_cast<size_t>(s)];
    for (int cls = 0; cls < num_classes; ++cls) {
      out.transitions_[static_cast<size_t>(b) * num_classes + cls] =
          block[static_cast<size_t>(transitions_[static_cast<size_t>(s) * num_classes + cls])];
    }
  }
  out.start_ = block[static_cast<size_t>(start_)];
  out.ComputeStateSummaries();
  return out;
}

Nfa Dfa::ToNfa() const {
  Nfa nfa;
  const int n = NumStates();
  const int num_classes = classes_.NumClasses();
  nfa.states.resize(static_cast<size_t>(n) + 1);
  const int accept = n;
  for (int s = 0; s < n; ++s) {
    // Group classes by target so each edge carries one merged CharSet.
    std::map<int, CharSet> by_target;
    for (int cls = 0; cls < num_classes; ++cls) {
      int t = transitions_[static_cast<size_t>(s) * num_classes + cls];
      CharSet& set = by_target[t];
      for (int c = 0; c < 256; ++c) {
        if (classes_.ClassOf(static_cast<unsigned char>(c)) == cls) {
          set.Add(static_cast<unsigned char>(c));
        }
      }
    }
    for (auto& [t, set] : by_target) {
      nfa.states[static_cast<size_t>(s)].transitions.push_back(NfaTransition{set, t});
    }
    if (accepting_[static_cast<size_t>(s)]) {
      nfa.states[static_cast<size_t>(s)].epsilon.push_back(accept);
    }
  }
  nfa.start = start_;
  nfa.accept = accept;
  return nfa;
}

std::optional<std::string> Dfa::ShortestWitness() const {
  const int num_classes = classes_.NumClasses();
  std::vector<int> parent(accepting_.size(), -1);
  std::vector<int> via(accepting_.size(), 0);
  std::vector<bool> seen(accepting_.size(), false);
  std::deque<int> work{start_};
  seen[static_cast<size_t>(start_)] = true;
  int found = -1;
  if (accepting_[static_cast<size_t>(start_)]) {
    found = start_;
  }
  while (!work.empty() && found < 0) {
    int s = work.front();
    work.pop_front();
    for (int cls = 0; cls < num_classes; ++cls) {
      unsigned char rep = PreferredRepresentative(classes_, cls);
      int t = transitions_[static_cast<size_t>(s) * num_classes + cls];
      if (!seen[static_cast<size_t>(t)]) {
        seen[static_cast<size_t>(t)] = true;
        parent[static_cast<size_t>(t)] = s;
        via[static_cast<size_t>(t)] = static_cast<int>(rep);
        if (accepting_[static_cast<size_t>(t)]) {
          found = t;
          break;
        }
        work.push_back(t);
      }
    }
  }
  if (found < 0) {
    return std::nullopt;
  }
  std::string witness;
  for (int s = found; s != start_; s = parent[static_cast<size_t>(s)]) {
    witness.push_back(static_cast<char>(via[static_cast<size_t>(s)]));
  }
  std::reverse(witness.begin(), witness.end());
  return witness;
}

std::vector<std::string> Dfa::SampleStrings(size_t limit) const {
  std::vector<std::string> out;
  if (limit == 0) {
    return out;
  }
  const int num_classes = classes_.NumClasses();
  // Breadth-first enumeration by length, capped to keep this cheap.
  constexpr size_t kMaxDepth = 24;
  constexpr size_t kMaxFrontier = 4096;
  std::deque<std::pair<int, std::string>> work;
  work.emplace_back(start_, "");
  while (!work.empty() && out.size() < limit) {
    auto [state, prefix] = std::move(work.front());
    work.pop_front();
    if (accepting_[static_cast<size_t>(state)]) {
      out.push_back(prefix);
      if (out.size() >= limit) {
        break;
      }
    }
    if (prefix.size() >= kMaxDepth || work.size() > kMaxFrontier) {
      continue;
    }
    for (int cls = 0; cls < num_classes; ++cls) {
      int t = transitions_[static_cast<size_t>(state) * num_classes + cls];
      if (IsDeadState(t)) {
        continue;
      }
      work.emplace_back(t, prefix + static_cast<char>(PreferredRepresentative(classes_, cls)));
    }
  }
  return out;
}

void Dfa::ComputeStateSummaries() {
  // Reverse reachability from accepting states.
  const int n = NumStates();
  const int num_classes = classes_.NumClasses();
  std::vector<std::vector<int>> rev(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    for (int cls = 0; cls < num_classes; ++cls) {
      int t = transitions_[static_cast<size_t>(s) * num_classes + cls];
      rev[static_cast<size_t>(t)].push_back(s);
    }
  }
  dead_.assign(static_cast<size_t>(n), true);
  std::deque<int> work;
  for (int s = 0; s < n; ++s) {
    if (accepting_[static_cast<size_t>(s)]) {
      dead_[static_cast<size_t>(s)] = false;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    int s = work.front();
    work.pop_front();
    for (int p : rev[static_cast<size_t>(s)]) {
      if (dead_[static_cast<size_t>(p)]) {
        dead_[static_cast<size_t>(p)] = false;
        work.push_back(p);
      }
    }
  }

  // Each class's bytes other than '\n', as a LineExits: count kStep when the
  // class has more than three, so every state it leaves steps.
  std::vector<LineExits> class_bytes(static_cast<size_t>(num_classes), LineExits{});
  for (int c = 0; c < 256; ++c) {
    const auto byte = static_cast<unsigned char>(c);
    LineExits& cls = class_bytes[static_cast<size_t>(classes_.ClassOf(byte))];
    if (byte != '\n' && cls.count != LineExits::kStep) {
      if (cls.count < cls.bytes.size()) {
        cls.bytes[cls.count] = byte;
      }
      ++cls.count;
    }
  }
  line_exits_.assign(static_cast<size_t>(n), LineExits{});
  steps_every_byte_ = true;
  for (int s = 0; s < n; ++s) {
    LineExits& exits = line_exits_[static_cast<size_t>(s)];
    if (dead_[static_cast<size_t>(s)]) {
      continue;
    }
    for (int cls = 0; cls < num_classes; ++cls) {
      if (transitions_[static_cast<size_t>(s) * num_classes + cls] == s) {
        continue;
      }
      const LineExits& leave = class_bytes[static_cast<size_t>(cls)];
      if (exits.count + leave.count > exits.bytes.size()) {
        exits.count = LineExits::kStep;
        break;
      }
      for (uint8_t i = 0; i < leave.count; ++i) {
        exits.bytes[exits.count++] = leave.bytes[i];
      }
    }
    for (size_t i = exits.count; exits.count != 0 && i < exits.bytes.size(); ++i) {
      exits.bytes[i] = exits.bytes[0];
    }
    steps_every_byte_ = steps_every_byte_ && exits.count == LineExits::kStep;
  }
}

}  // namespace sash::regex

// Deterministic finite automata over byte equivalence classes, plus the
// language algebra regular types rely on: complement, product (intersection /
// union / difference), emptiness, inclusion, equivalence, minimization, and
// witness-string extraction.
//
// Every DFA is *complete*: each state has a transition for every byte class
// (a dead sink state is materialized when needed). Completeness makes
// complement a flip of the accepting set and keeps product constructions
// simple.
#ifndef SASH_REGEX_DFA_H_
#define SASH_REGEX_DFA_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "regex/nfa.h"

namespace sash::regex {

// Partition of the 256 byte values into equivalence classes: bytes in the same
// class are indistinguishable to a given set of automata.
class ByteClasses {
 public:
  // One class containing every byte.
  ByteClasses();

  // Refines the partition so that `set` is a union of classes.
  void Refine(const CharSet& set);

  // Coarsest common refinement of two partitions.
  static ByteClasses Merge(const ByteClasses& a, const ByteClasses& b);

  int ClassOf(unsigned char c) const { return class_of_[c]; }
  int NumClasses() const { return num_classes_; }

  // A representative byte for each class.
  unsigned char Representative(int cls) const;

 private:
  void Renumber();

  std::array<int16_t, 256> class_of_;
  int num_classes_ = 1;
};

class Dfa {
 public:
  // Subset construction. The resulting DFA is complete and has no unreachable
  // states; it is NOT minimized (call Minimize()).
  static Dfa FromNfa(const Nfa& nfa);

  // Convenience: parse-free construction from an AST.
  static Dfa FromAst(const NodePtr& node);

  int NumStates() const { return static_cast<int>(accepting_.size()); }
  bool Accepts(std::string_view input) const;

  // Accepts() for a line: `line` must hold no '\n'. Equal to Accepts(line),
  // but it stops at the first state that decides the rest of the line, and
  // from a state that at most three bytes leave it jumps to the next of them
  // instead of stepping the bytes that loop.
  bool AcceptsLine(std::string_view line) const;

  // True when the start state accepts every line: AcceptsLine is then true
  // whatever the line, and a caller can skip the scan.
  bool AcceptsEveryLine() const {
    return line_exits_[static_cast<size_t>(start_)].count == 0 &&
           accepting_[static_cast<size_t>(start_)];
  }

  // The bytes other than '\n' that leave `state`, sorted, when there are at
  // most three: "" when the state decides the rest of a line (as a dead state
  // does), nullopt when AcceptsLine steps through it byte by byte.
  std::optional<std::string> LineExitBytes(int state) const;

  // Whether the language is empty / contains every string / contains ε.
  bool IsEmptyLanguage() const;
  bool IsUniversal() const;
  bool AcceptsEpsilon() const { return accepting_[start_]; }

  Dfa Complement() const;
  Dfa Intersect(const Dfa& other) const;
  Dfa Union(const Dfa& other) const;
  Dfa Difference(const Dfa& other) const;  // this \ other

  // Language inclusion: L(this) ⊆ L(other). Runs a product reachability check
  // without materializing the product automaton.
  bool IncludedIn(const Dfa& other) const;
  bool EquivalentTo(const Dfa& other) const;

  // Partition-refinement minimization (returns a fresh minimal complete DFA).
  Dfa Minimize() const;

  // Views the DFA as an NFA (adds a single ε-linked accept state). Used to
  // implement concatenation/star on languages that exist only as automata.
  Nfa ToNfa() const;

  // Shortest accepted string, if any (BFS). Used to print witnesses in
  // diagnostics, e.g. a concrete line that triggers the bug.
  std::optional<std::string> ShortestWitness() const;

  // Up to `limit` accepted strings in length order, for user-facing examples.
  std::vector<std::string> SampleStrings(size_t limit) const;

  // Incremental matching interface for the runtime monitor: feed bytes one at
  // a time; `state` starts at StartState().
  int StartState() const { return start_; }
  int Step(int state, unsigned char c) const {
    return transitions_[static_cast<size_t>(state) * classes_.NumClasses() +
                        static_cast<size_t>(classes_.ClassOf(c))];
  }
  bool IsAccepting(int state) const { return accepting_[static_cast<size_t>(state)]; }

  // True when no accepting state is reachable from `state` — the monitor can
  // reject a line before seeing its end.
  bool IsDeadState(int state) const { return dead_[static_cast<size_t>(state)]; }

 private:
  Dfa() = default;

  // Product construction shared by Intersect/Union/Difference/IncludedIn.
  enum class ProductMode { kIntersect, kUnion, kDifference };
  static Dfa Product(const Dfa& a, const Dfa& b, ProductMode mode);

  // Computes dead_, line_exits_ and steps_every_byte_ from transitions_ and
  // accepting_; every construction calls it last.
  void ComputeStateSummaries();

  // The bytes other than '\n' that leave a state, when there are at most
  // three (unused slots repeat bytes[0]). count 0: the state decides the rest
  // of a line — it accepts iff the state is accepting (a dead state is
  // recorded so too); count kStep: more than three bytes leave it.
  struct LineExits {
    static constexpr uint8_t kStep = 4;
    uint8_t count = 0;
    std::array<unsigned char, 3> bytes{};
  };

  ByteClasses classes_;
  // transitions_[state * NumClasses + cls] = next state (always valid).
  std::vector<int> transitions_;
  std::vector<bool> accepting_;
  std::vector<bool> dead_;  // No accepting state reachable.
  std::vector<LineExits> line_exits_;
  // No live state is accelerated or decides a line (as in `-?\d+`):
  // AcceptsLine steps without consulting line_exits_, which costs a load
  // and a branch per byte.
  bool steps_every_byte_ = false;
  int start_ = 0;
};

}  // namespace sash::regex

#endif  // SASH_REGEX_DFA_H_

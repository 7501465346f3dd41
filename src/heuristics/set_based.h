#ifndef TUPELO_HEURISTICS_SET_BASED_H_
#define TUPELO_HEURISTICS_SET_BASED_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "heuristics/heuristic.h"

namespace tupelo {

// The target's distinct symbols, numbered once per TNF column: relation
// names (πREL), attribute names (πATT) and non-null data values (πVALUE).
// Each column's symbols are kept sorted — the order candidate generation
// iterates them in — and a symbol's ordinal in a column is its position
// there. One flat hash table takes a symbol to its ordinal in every
// column it occurs in, so a state is measured against the target in one
// scan, with no per-state set.
//
// The table's keys view the strings of symbols_, so the index is neither
// copyable nor movable.
class TargetSymbolIndex {
 public:
  enum Column : int { kRel = 0, kAtt = 1, kValue = 2 };
  static constexpr int kColumns = 3;

  // hits[s][t] = |πt(target) ∩ πs(state)|: the distinct target symbols of
  // column t that the state holds in its column s.
  using Overlap = std::array<std::array<int, kColumns>, kColumns>;

  explicit TargetSymbolIndex(const Database& target);
  TargetSymbolIndex(const TargetSymbolIndex&) = delete;
  TargetSymbolIndex& operator=(const TargetSymbolIndex&) = delete;

  // The target's distinct symbols of column `c`, sorted.
  const std::vector<std::string>& symbols(Column c) const {
    return symbols_[c];
  }

  // Whether `symbol` occurs in the target's column `c`.
  bool Contains(Column c, std::string_view symbol) const;

  // Scans the state's relation names, attributes and non-null values once.
  // Every symbol found in the index sets its ordinal's bit in the bitset of
  // each (state column × target column) cell it falls in; each cell's
  // popcount is its count. Allocation-free once the calling thread's
  // scratch bitsets have grown to this target's size.
  Overlap Count(const Database& state) const;

  // Whether every target attribute names a column somewhere in `state`.
  // Returns as soon as the scan has seen them all.
  bool HoldsAllAttributes(const Database& state) const;

 private:
  // One table slot: a symbol (viewing a string of symbols_) and its
  // ordinal in each column, -1 where it does not occur. An empty slot has
  // a null symbol.
  struct Slot {
    std::string_view symbol;
    size_t hash = 0;
    std::array<int32_t, kColumns> ord{-1, -1, -1};
  };

  // The symbol's slot, or nullptr when the target does not hold it.
  const Slot* Find(std::string_view symbol) const;

  std::array<std::vector<std::string>, kColumns> symbols_;
  // Open addressing with linear probing; a power-of-two size at least
  // twice the symbol count, so probes always reach an empty slot.
  std::vector<Slot> slots_;
  // Scratch layout: one row per state column; a row is the three target
  // columns' bitsets back to back, column t at word_offset_[t].
  std::array<size_t, kColumns + 1> word_offset_{};
};

// h0(x) = 0: the blind/brute-force baseline used for comparison in §5.
class BlindHeuristic : public Heuristic {
 public:
  int Estimate(const Database&) const override { return 0; }
  std::string_view name() const override { return "h0"; }
};

// h1(x): symbols of the target missing from x, per TNF column:
//   |πREL(t)−πREL(x)| + |πATT(t)−πATT(x)| + |πVALUE(t)−πVALUE(x)|.
// Computed from one TargetSymbolIndex::Count(x): each column's target
// size minus the diagonal cell of the overlap.
class H1Heuristic : public Heuristic {
 public:
  explicit H1Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h1"; }

 private:
  TargetSymbolIndex index_;
};

// h2(x): minimum promotions/demotions — symbols sitting in the wrong TNF
// column: the six pairwise intersections |πREL(t) ∩ πATT(x)| + ... .
// Computed from one TargetSymbolIndex::Count(x): the sum of the overlap's
// six off-diagonal cells.
class H2Heuristic : public Heuristic {
 public:
  explicit H2Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h2"; }

 private:
  TargetSymbolIndex index_;
};

// Extension beyond the paper (§7 asks for a heuristic measuring "both
// content and structure"): like h1, but attributes and values are counted
// *jointly*. A target attribute that carries data is only credited when
// some state column of that name holds one of its target values — so a
// rename that creates the right column name with the wrong data (the trap
// that stalls h1 under IDA* on wide schemas) earns nothing.
//
//   hP(x) = |πREL(t) − πREL(x)|
//         + |π(ATT,VALUE)(t) − π(ATT,VALUE)(x)|   (non-null pairs)
//         + |πATT(t') − πATT(x)|                  (t' = value-less attrs)
//
// Unlike h1/h2/h3 it does not use TargetSymbolIndex: each Estimate still
// builds the state's pair and attribute sets.
class ColumnPairsHeuristic : public Heuristic {
 public:
  explicit ColumnPairsHeuristic(const Database& target);
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "pairs"; }

 private:
  std::set<std::string> target_rels_;
  // "att\x1fvalue" join keys for non-null target cells.
  std::set<std::string> target_pairs_;
  // Target attributes with no non-null values anywhere.
  std::set<std::string> target_bare_atts_;
};

// h3(x) = max(h1(x), h2(x)), both read off a single Count(x).
class H3Heuristic : public Heuristic {
 public:
  explicit H3Heuristic(const Database& target) : index_(target) {}
  int Estimate(const Database& state) const override;
  std::string_view name() const override { return "h3"; }

 private:
  TargetSymbolIndex index_;
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_SET_BASED_H_

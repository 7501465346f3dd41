#include "heuristics/set_based.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>
#include <vector>

namespace tupelo {
namespace {

// `words` zeroed words of the calling thread's scratch. Grows (allocates)
// only when a larger target than any before on this thread needs it.
uint64_t* ZeroedScratch(size_t words) {
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  std::fill_n(scratch.begin(), words, uint64_t{0});
  return scratch.data();
}

// Sets bit `ord` of `bits`; returns whether it was clear before.
bool SetBit(uint64_t* bits, int32_t ord) {
  const uint64_t mask = uint64_t{1} << (ord % 64);
  uint64_t& word = bits[ord / 64];
  const bool was_clear = (word & mask) == 0;
  word |= mask;
  return was_clear;
}

// h1 from an overlap: Σc (|πc(target)| − hits[c][c]).
int Missing(const TargetSymbolIndex& index,
            const TargetSymbolIndex::Overlap& hits) {
  int missing = 0;
  for (int c = 0; c < TargetSymbolIndex::kColumns; ++c) {
    const auto col = static_cast<TargetSymbolIndex::Column>(c);
    missing += static_cast<int>(index.symbols(col).size()) - hits[c][c];
  }
  return missing;
}

// h2 from an overlap: the six off-diagonal cells, Σs≠t hits[s][t].
int Misplaced(const TargetSymbolIndex::Overlap& hits) {
  int misplaced = 0;
  for (int s = 0; s < TargetSymbolIndex::kColumns; ++s) {
    for (int t = 0; t < TargetSymbolIndex::kColumns; ++t) {
      if (s != t) misplaced += hits[s][t];
    }
  }
  return misplaced;
}

}  // namespace

TargetSymbolIndex::TargetSymbolIndex(const Database& target) {
  std::array<std::set<std::string>, kColumns> sorted;
  for (const auto& [rname, relp] : target.relations()) {
    const Relation& rel = *relp;
    sorted[kRel].insert(rname);
    for (const std::string& attr : rel.attributes()) {
      sorted[kAtt].insert(attr);
    }
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t.values()) {
        if (!v.is_null()) sorted[kValue].insert(v.atom());
      }
    }
  }
  size_t total = 0;
  for (int c = 0; c < kColumns; ++c) {
    symbols_[c].assign(sorted[c].begin(), sorted[c].end());
    total += symbols_[c].size();
    const size_t words = (symbols_[c].size() + 63) / 64;
    word_offset_[c + 1] = word_offset_[c] + words;
  }
  // Keys view strings of symbols_, which never change after this point.
  slots_.resize(std::bit_ceil(2 * total + 1));
  const size_t mask = slots_.size() - 1;
  for (int c = 0; c < kColumns; ++c) {
    for (size_t i = 0; i < symbols_[c].size(); ++i) {
      const std::string_view symbol = symbols_[c][i];
      const size_t hash = std::hash<std::string_view>{}(symbol);
      size_t at = hash & mask;
      while (slots_[at].symbol.data() != nullptr &&
             slots_[at].symbol != symbol) {
        at = (at + 1) & mask;
      }
      slots_[at].symbol = symbol;
      slots_[at].hash = hash;
      slots_[at].ord[c] = static_cast<int32_t>(i);
    }
  }
}

const TargetSymbolIndex::Slot* TargetSymbolIndex::Find(
    std::string_view symbol) const {
  const size_t hash = std::hash<std::string_view>{}(symbol);
  const size_t mask = slots_.size() - 1;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.symbol.data() == nullptr) return nullptr;
    if (slot.hash == hash && slot.symbol == symbol) return &slot;
  }
}

bool TargetSymbolIndex::Contains(Column c, std::string_view symbol) const {
  const Slot* slot = Find(symbol);
  return slot != nullptr && slot->ord[c] >= 0;
}

TargetSymbolIndex::Overlap TargetSymbolIndex::Count(
    const Database& state) const {
  const size_t row_words = word_offset_[kColumns];
  if (row_words == 0) return Overlap{};  // empty target: nothing to hit
  uint64_t* bits = ZeroedScratch(kColumns * row_words);
  auto mark = [&](Column s, std::string_view symbol) {
    const Slot* slot = Find(symbol);
    if (slot == nullptr) return;
    uint64_t* row = bits + s * row_words;
    for (int t = 0; t < kColumns; ++t) {
      if (slot->ord[t] >= 0) SetBit(row + word_offset_[t], slot->ord[t]);
    }
  };
  for (const auto& [rname, relp] : state.relations()) {
    const Relation& rel = *relp;
    mark(kRel, rname);
    for (const std::string& attr : rel.attributes()) mark(kAtt, attr);
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t.values()) {
        if (!v.is_null()) mark(kValue, v.atom());
      }
    }
  }
  Overlap hits{};
  for (int s = 0; s < kColumns; ++s) {
    const uint64_t* row = bits + s * row_words;
    for (int t = 0; t < kColumns; ++t) {
      for (size_t w = word_offset_[t]; w < word_offset_[t + 1]; ++w) {
        hits[s][t] += std::popcount(row[w]);
      }
    }
  }
  return hits;
}

bool TargetSymbolIndex::HoldsAllAttributes(const Database& state) const {
  const size_t want = symbols_[kAtt].size();
  if (want == 0) return true;
  uint64_t* bits = ZeroedScratch(word_offset_[kAtt + 1] - word_offset_[kAtt]);
  size_t found = 0;
  for (const auto& [rname, relp] : state.relations()) {
    for (const std::string& attr : relp->attributes()) {
      const Slot* slot = Find(attr);
      if (slot == nullptr || slot->ord[kAtt] < 0) continue;
      if (SetBit(bits, slot->ord[kAtt]) && ++found == want) return true;
    }
  }
  return false;
}

int H1Heuristic::Estimate(const Database& state) const {
  return Missing(index_, index_.Count(state));
}

int H2Heuristic::Estimate(const Database& state) const {
  return Misplaced(index_.Count(state));
}

int H3Heuristic::Estimate(const Database& state) const {
  const TargetSymbolIndex::Overlap hits = index_.Count(state);
  return std::max(Missing(index_, hits), Misplaced(hits));
}

namespace {

std::string PairKey(const std::string& att, const std::string& value) {
  std::string key = att;
  key += '\x1f';
  key += value;
  return key;
}

// Collects the (att, value) pair keys and the value-less attributes.
void CollectPairs(const Database& db, std::set<std::string>* pairs,
                  std::set<std::string>* atts_with_values,
                  std::set<std::string>* all_atts) {
  for (const auto& [rname, relp] : db.relations()) {
    const Relation& rel = *relp;
    for (size_t i = 0; i < rel.arity(); ++i) {
      all_atts->insert(rel.attributes()[i]);
      for (const Tuple& t : rel.tuples()) {
        if (t[i].is_null()) continue;
        pairs->insert(PairKey(rel.attributes()[i], t[i].atom()));
        atts_with_values->insert(rel.attributes()[i]);
      }
    }
  }
}

}  // namespace

ColumnPairsHeuristic::ColumnPairsHeuristic(const Database& target) {
  for (const auto& [rname, rel] : target.relations()) {
    target_rels_.insert(rname);
  }
  std::set<std::string> with_values;
  std::set<std::string> all_atts;
  CollectPairs(target, &target_pairs_, &with_values, &all_atts);
  for (const std::string& att : all_atts) {
    if (!with_values.contains(att)) target_bare_atts_.insert(att);
  }
}

int ColumnPairsHeuristic::Estimate(const Database& state) const {
  std::set<std::string> state_pairs;
  std::set<std::string> unused;
  std::set<std::string> state_atts;
  CollectPairs(state, &state_pairs, &unused, &state_atts);

  int missing = 0;
  for (const std::string& rel : target_rels_) {
    if (!state.HasRelation(rel)) ++missing;
  }
  for (const std::string& pair : target_pairs_) {
    if (!state_pairs.contains(pair)) ++missing;
  }
  for (const std::string& att : target_bare_atts_) {
    if (!state_atts.contains(att)) ++missing;
  }
  return missing;
}

}  // namespace tupelo

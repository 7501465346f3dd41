#include "heuristics/term_vector.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/simd/term_merge.h"

namespace tupelo {
namespace {

// Seed of the triple-key hash chain. Any fixed odd constant works; keys
// are in-memory only, never persisted.
constexpr uint64_t kTermKeySeed = 0x74756c6570206b76ULL;

// The '\x1e' null sentinel of the old string keys, kept as the hashed
// value token for null cells so null and the atom "\x1e" stay distinct
// from absent.
constexpr std::string_view kNullToken = "\x1e";

}  // namespace

TermVector TermVector::FromDatabase(const Database& db) {
  size_t cells = 0;
  for (const auto& [rname, relp] : db.relations()) {
    cells += relp->tuples().size() * relp->arity();
  }

  // One key per cell: hash each column's (relation, attribute) prefix
  // once, then extend it per value. Nulls reuse a per-column
  // precomputed key.
  std::vector<uint64_t> cell_keys;
  cell_keys.reserve(cells);
  std::vector<uint64_t> col_key;
  std::vector<uint64_t> col_null_key;
  for (const auto& [rname, relp] : db.relations()) {
    const Relation& rel = *relp;
    const uint64_t rel_hash = HashBytes64(rname, kTermKeySeed);
    col_key.clear();
    col_null_key.clear();
    for (size_t i = 0; i < rel.arity(); ++i) {
      col_key.push_back(HashBytes64(rel.attributes()[i], rel_hash));
      col_null_key.push_back(HashBytes64(kNullToken, col_key.back()));
    }
    for (const Tuple& t : rel.tuples()) {
      for (size_t i = 0; i < rel.arity(); ++i) {
        cell_keys.push_back(t[i].is_null() ? col_null_key[i]
                                           : HashBytes64(t[i].atom(),
                                                         col_key[i]));
      }
    }
  }

  std::sort(cell_keys.begin(), cell_keys.end());

  TermVector tv;
  for (size_t i = 0; i < cell_keys.size();) {
    size_t j = i + 1;
    while (j < cell_keys.size() && cell_keys[j] == cell_keys[i]) ++j;
    tv.keys_.push_back(cell_keys[i]);
    tv.counts_.push_back(static_cast<double>(j - i));
    i = j;
  }
  tv.sum_ = simd::CountSum(tv.counts_.data(), tv.counts_.size());
  tv.sum_sq_ = simd::CountSumSquares(tv.counts_.data(), tv.counts_.size());
  return tv;
}

double TermVector::Norm() const { return std::sqrt(sum_sq_); }

double TermVector::EuclideanDistance(const TermVector& x, const TermVector& y) {
  // Σ(x−y)² = Σx² + Σy² − 2Σxy. Every term is an exact integer, so this
  // equals the per-coordinate sum exactly.
  const double dot = simd::DotMerge(x.keys_.data(), x.counts_.data(),
                                    x.keys_.size(), y.keys_.data(),
                                    y.counts_.data(), y.keys_.size());
  return std::sqrt(x.sum_sq_ + y.sum_sq_ - 2.0 * dot);
}

double TermVector::NormalizedEuclideanDistance(const TermVector& x,
                                               const TermVector& y) {
  // No identity form here: the normalized coordinates x_i/|x| are not
  // exact, and the tests pin exact scale invariance — (2v)/(2|x|) equals
  // v/|x| per coordinate in floating point, which an algebraic
  // rearrangement would not preserve. Stays a per-coordinate merge.
  double nx = x.Norm();
  double ny = y.Norm();
  double sum = 0.0;
  auto xval = [&](double v) { return nx > 0.0 ? v / nx : 0.0; };
  auto yval = [&](double v) { return ny > 0.0 ? v / ny : 0.0; };
  size_t i = 0;
  size_t j = 0;
  while (i < x.keys_.size() || j < y.keys_.size()) {
    if (j == y.keys_.size() ||
        (i != x.keys_.size() && x.keys_[i] < y.keys_[j])) {
      double d = xval(x.counts_[i]);
      sum += d * d;
      ++i;
    } else if (i == x.keys_.size() || y.keys_[j] < x.keys_[i]) {
      double d = yval(y.counts_[j]);
      sum += d * d;
      ++j;
    } else {
      double d = xval(x.counts_[i]) - yval(y.counts_[j]);
      sum += d * d;
      ++i;
      ++j;
    }
  }
  return std::sqrt(sum);
}

double TermVector::CosineSimilarity(const TermVector& x, const TermVector& y) {
  double nx = x.Norm();
  double ny = y.Norm();
  if (nx == 0.0 || ny == 0.0) return 0.0;
  const double dot = simd::DotMerge(x.keys_.data(), x.counts_.data(),
                                    x.keys_.size(), y.keys_.data(),
                                    y.counts_.data(), y.keys_.size());
  return dot / (nx * ny);
}

double TermVector::JaccardSimilarity(const TermVector& x,
                                     const TermVector& y) {
  // Σmax = Σx + Σy − Σmin, exact for integer counts.
  const double min_sum = simd::MinSumMerge(x.keys_.data(), x.counts_.data(),
                                           x.keys_.size(), y.keys_.data(),
                                           y.counts_.data(), y.keys_.size());
  const double max_sum = x.sum_ + y.sum_ - min_sum;
  if (max_sum == 0.0) return 1.0;  // both empty: identical
  return min_sum / max_sum;
}

TnfEncodeStats& ThreadTnfEncodeStats() {
  thread_local TnfEncodeStats stats;
  return stats;
}

std::string DatabaseToTnfString(const Database& db) {
  constexpr std::string_view kBottom = "⊥";
  size_t cells = 0;
  for (const auto& [rname, relp] : db.relations()) {
    cells += relp->tuples().size() * relp->arity();
  }
  std::vector<std::string> rows;
  rows.reserve(cells);
  size_t total_bytes = 0;
  for (const auto& [rname, relp] : db.relations()) {
    const Relation& rel = *relp;
    for (const Tuple& t : rel.tuples()) {
      for (size_t i = 0; i < rel.arity(); ++i) {
        const std::string& att = rel.attributes()[i];
        const std::string_view v = t[i].is_null()
                                       ? kBottom
                                       : std::string_view(t[i].atom());
        std::string row;
        row.reserve(rname.size() + att.size() + v.size());
        row += rname;
        row += att;
        row += v;
        total_bytes += row.size();
        rows.push_back(std::move(row));
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  out.reserve(total_bytes);
  for (const std::string& row : rows) out += row;

  TnfEncodeStats& stats = ThreadTnfEncodeStats();
  ++stats.encodes;
  stats.bytes += out.size();
  return out;
}

}  // namespace tupelo

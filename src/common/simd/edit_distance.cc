#include "common/simd/edit_distance.h"

#include <algorithm>
#include <numeric>


namespace tupelo::simd {
namespace {

// Myers 1999 bit-parallel DP in its global-alignment form (Hyyrö's
// formulation): pattern rows live in 64-bit vertical delta vectors
// Pv/Mv, one column per text character. The `| 1` fed into Ph after the
// shift is the D[0][j] = j boundary — each column enters with a +1
// horizontal delta at row 0, which is what turns the approximate-match
// recurrence into plain edit distance.
size_t Myers64(size_t m, const uint64_t peq[256], std::string_view text) {
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = m;
  const uint64_t last = uint64_t{1} << (m - 1);
  for (unsigned char c : text) {
    uint64_t eq = peq[c];
    uint64_t xv = eq | mv;
    uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

// Blocked Myers for patterns longer than 64 rows: W = ceil(m/64) blocks
// per column, processed low block to high with a carry hin/hout in
// {-1, 0, +1} between them. The score is tracked at the true last row's
// bit, (m-1) % 64 of the top block, read before the shift; bits above it
// in a partial top block are garbage but harmless — the addition and the
// shifts only carry upward, and the top block's hout is never used.
size_t MyersBlocked(std::string_view pattern, std::string_view text,
                    size_t blocks, const uint64_t* peq) {
  const size_t m = pattern.size();
  const size_t w = blocks;
  std::vector<uint64_t> pv(w, ~uint64_t{0});
  std::vector<uint64_t> mv(w, 0);
  size_t score = m;
  const size_t last_bit = (m - 1) % 64;
  for (unsigned char c : text) {
    const uint64_t* eq_col = peq + static_cast<size_t>(c) * w;
    int hin = 1;  // D[0][j] - D[0][j-1] = +1: global alignment boundary
    for (size_t b = 0; b < w; ++b) {
      uint64_t eq = eq_col[b];
      uint64_t pvb = pv[b];
      uint64_t mvb = mv[b];
      uint64_t xv = eq | mvb;
      if (hin < 0) eq |= 1;
      uint64_t xh = (((eq & pvb) + pvb) ^ pvb) | eq;
      uint64_t ph = mvb | ~(xh | pvb);
      uint64_t mh = pvb & xh;
      if (b == w - 1) {
        if ((ph >> last_bit) & 1) {
          ++score;
        } else if ((mh >> last_bit) & 1) {
          --score;
        }
      }
      int hout = 0;
      if (ph >> 63) {
        hout = 1;
      } else if (mh >> 63) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) {
        ph |= 1;
      } else if (hin < 0) {
        mh |= 1;
      }
      pv[b] = mh | ~(xv | ph);
      mv[b] = ph & xv;
      hin = hout;
    }
  }
  return score;
}

// peq[c] for a single-word pattern (m <= 64).
void BuildPeq64(std::string_view pattern, uint64_t peq[256]) {
  std::fill(peq, peq + 256, 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
}

void BuildPeq(std::string_view pattern, size_t blocks,
              std::vector<uint64_t>& peq) {
  peq.assign(blocks * 256, 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<size_t>(static_cast<unsigned char>(pattern[i])) * blocks +
        i / 64] |= uint64_t{1} << (i % 64);
  }
}

size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

size_t CommonSuffix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[a.size() - 1 - i] == b[b.size() - 1 - i]) ++i;
  return i;
}

// Myers over already-trimmed strings. The shorter string is the pattern
// when it fits one word; otherwise whichever side minimizes work
// (ceil(|pattern|/64) blocks x |text| columns — rounding to whole words
// can favor either side).
size_t MyersDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) {
    uint64_t peq[256];
    BuildPeq64(a, peq);
    return Myers64(a.size(), peq, b);
  }
  const size_t blocks_a = (a.size() + 63) / 64;
  const size_t blocks_b = (b.size() + 63) / 64;
  std::string_view pattern = blocks_b * a.size() <= blocks_a * b.size() ? b : a;
  std::string_view text = pattern.data() == b.data() ? a : b;
  const size_t blocks = (pattern.size() + 63) / 64;
  std::vector<uint64_t> peq;
  BuildPeq(pattern, blocks, peq);
  return MyersBlocked(pattern, text, blocks, peq.data());
}

}  // namespace

size_t EditDistanceScalar(std::string_view a, std::string_view b) {
  // Keep the shorter string in the DP row.
  if (a.size() < b.size()) std::swap(a, b);
  if (b.empty()) return a.size();

  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});

  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];  // row[j-1] of the previous row
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({up + 1,          // delete from a
                         row[j - 1] + 1,  // insert into a
                         substitute});
      diagonal = up;
    }
  }
  return row[b.size()];
}

size_t EditDistance(std::string_view a, std::string_view b) {
  // Common prefix/suffix contribute no edits; trimming them shrinks the
  // DP without changing the distance.
  const size_t prefix = CommonPrefix(a, b);
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  const size_t suffix = CommonSuffix(a, b);
  a.remove_suffix(suffix);
  b.remove_suffix(suffix);
  return MyersDistance(a, b);
}

PreparedPattern::PreparedPattern(std::string pattern)
    : pattern_(std::move(pattern)) {
  if (pattern_.empty()) return;
  if (pattern_.size() <= 64) {
    blocks_ = 1;
    peq_.assign(256, 0);
    BuildPeq64(pattern_, peq_.data());
  } else {
    blocks_ = (pattern_.size() + 63) / 64;
    BuildPeq(pattern_, blocks_, peq_);
  }
}

size_t PreparedPattern::Distance(std::string_view text) const {
  if (pattern_.empty()) return text.size();
  if (text.empty()) return pattern_.size();
  if (pattern_.size() <= 64) return Myers64(pattern_.size(), peq_.data(), text);
  return MyersBlocked(pattern_, text, blocks_, peq_.data());
}

}  // namespace tupelo::simd

#include "common/simd/term_merge.h"

#include <algorithm>

namespace tupelo::simd {
namespace {

// Both merges share one shape: advance two cursors through sorted unique
// key arrays, fold matched pairs through Op. Runs of unmatched keys are
// skipped with LowerBoundKey, so a merge of a small vector against a
// large one costs roughly the small side plus the scans — the common
// case in search, where a state differs from the fixed target in a
// handful of terms.
template <typename Op>
double MergeFold(const uint64_t* xk, const double* xc, size_t nx,
                 const uint64_t* yk, const double* yc, size_t ny, Op op) {
  double acc = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < nx && j < ny) {
    const uint64_t kx = xk[i];
    const uint64_t ky = yk[j];
    if (kx == ky) {
      acc += op(xc[i], yc[j]);
      ++i;
      ++j;
    } else if (kx < ky) {
      i += LowerBoundKey(xk + i, nx - i, ky);
    } else {
      j += LowerBoundKey(yk + j, ny - j, kx);
    }
  }
  return acc;
}

}  // namespace

double CountSum(const double* c, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += c[i];
  return sum;
}

double CountSumSquares(const double* c, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += c[i] * c[i];
  return sum;
}

size_t LowerBoundKey(const uint64_t* keys, size_t n, uint64_t key) {
  size_t i = 0;
  while (i < n && keys[i] < key) ++i;
  return i;
}

double DotMerge(const uint64_t* xk, const double* xc, size_t nx,
                const uint64_t* yk, const double* yc, size_t ny) {
  return MergeFold(xk, xc, nx, yk, yc, ny,
                   [](double x, double y) { return x * y; });
}

double MinSumMerge(const uint64_t* xk, const double* xc, size_t nx,
                   const uint64_t* yk, const double* yc, size_t ny) {
  return MergeFold(xk, xc, nx, yk, yc, ny,
                   [](double x, double y) { return std::min(x, y); });
}

}  // namespace tupelo::simd

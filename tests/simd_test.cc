// Differential tests for the common/simd kernel layer: Myers edit
// distance against the DP oracle (EditDistanceScalar), the term-vector
// merges against a plain reference loop, and HashBytes64 against known
// answers, so the term-key hash cannot drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/simd/edit_distance.h"
#include "common/simd/term_merge.h"
#include "core/mapping_problem.h"
#include "heuristics/vector_heuristics.h"
#include "relational/database.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

// Deterministic splitmix64 stream; no std::random_device, so failures
// reproduce from the seed in the test body.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  // In [0, bound).
  size_t Below(size_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

// Strings drawn from the alphabet TNF encodings actually contain:
// letters, digits, the '\x1f'/'\x1e' separators of the old triple keys,
// and the multi-byte UTF-8 "⊥" null marker.
std::string RandomTnfish(Rng& rng, size_t len) {
  static constexpr std::string_view kAtoms[] = {
      "a", "b", "z", "R", "7", "\x1f", "\x1e", "⊥", "é",
  };
  std::string s;
  s.reserve(len + 2);
  while (s.size() < len) {
    s += kAtoms[rng.Below(std::size(kAtoms))];
  }
  s.resize(len);
  return s;
}

std::vector<std::pair<std::string, std::string>> AdversarialPairs() {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "abc"},
      {"abc", ""},
      {"abc", "abc"},
      {"kitten", "sitting"},
      {"\x1f\x1e", "\x1e\x1f"},
      {"a\x1f b\x1e c", "a\x1e b\x1f c"},
      {"⊥⊥⊥", "⊥x⊥"},
      {"ab⊥cd", "abcd"},
      // Exactly one word, and one-past-one-word (the Myers64/blocked
      // boundary).
      {std::string(64, 'a'), std::string(64, 'b')},
      {std::string(65, 'a'), std::string(64, 'a') + "b"},
      // Shared prefix/suffix around a differing core (trimming path).
      {std::string(100, 'p') + "xyz" + std::string(100, 's'),
       std::string(100, 'p') + "xq" + std::string(100, 's')},
  };
  Rng rng(0x5eed5eed5eedULL);
  const size_t lengths[] = {1, 2, 7, 63, 64, 65, 127, 128, 200,
                            513, 1024, 4096};
  for (size_t la : lengths) {
    // Symmetric-ish pair plus a strongly asymmetric one (short pattern,
    // long text — the pattern-side-selection case).
    pairs.emplace_back(RandomTnfish(rng, la),
                       RandomTnfish(rng, la + rng.Below(5)));
    pairs.emplace_back(RandomTnfish(rng, rng.Below(32)),
                       RandomTnfish(rng, la));
  }
  return pairs;
}

TEST(SimdEditDistanceTest, MatchesScalarOnAdversarialPairs) {
  for (const auto& [a, b] : AdversarialPairs()) {
    const size_t expected = simd::EditDistanceScalar(a, b);
    EXPECT_EQ(simd::EditDistance(a, b), expected)
        << "|a|=" << a.size() << " |b|=" << b.size();
    EXPECT_EQ(simd::EditDistance(b, a), expected) << "(swapped)";
  }
}

TEST(SimdEditDistanceTest, PreparedPatternMatchesScalar) {
  for (const auto& [a, b] : AdversarialPairs()) {
    simd::PreparedPattern prepared(a);
    EXPECT_EQ(prepared.Distance(b), simd::EditDistanceScalar(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

// Known answers for HashBytes64, recorded while an AVX2 stripe step
// still existed (it and the portable loop agreed on all of them).
// Lengths straddle the 32-byte block (31/32/33), cover the empty and
// tail-only inputs, and a multi-block input with a tail; bytes run
// through the high half so sign handling is exercised. A changed value
// here changes every term key.
TEST(SimdHashTest, KnownAnswers) {
  struct Case {
    size_t len;
    uint64_t seed;
    uint64_t hash;
  };
  constexpr Case kCases[] = {
      {0, 0x0000000000000000ULL, 0xa6f6a467ef69cf3bULL},
      {1, 0x0000000000000000ULL, 0x8bd3c74b43afbbf0ULL},
      {31, 0x0000000000000000ULL, 0xc608f62d85709cf7ULL},
      {32, 0x0000000000000000ULL, 0xacaa81099cf2aad5ULL},
      {33, 0x0000000000000000ULL, 0xf391eb608d753052ULL},
      {100, 0x0000000000000000ULL, 0x58be38c064ed73e4ULL},
      {0, 0x9e3779b97f4a7c15ULL, 0x4db5294156e39c66ULL},
      {1, 0x9e3779b97f4a7c15ULL, 0x64fc3526a2bf8497ULL},
      {31, 0x9e3779b97f4a7c15ULL, 0xc5aec435da314ad7ULL},
      {32, 0x9e3779b97f4a7c15ULL, 0xfec74f0ea55c6c04ULL},
      {33, 0x9e3779b97f4a7c15ULL, 0x31201295a5e8b3f7ULL},
      {100, 0x9e3779b97f4a7c15ULL, 0x696bb311cb42e80bULL},
  };
  for (const Case& c : kCases) {
    std::string input;
    for (size_t i = 0; i < c.len; ++i) {
      input.push_back(static_cast<char>((i * 131 + 17) & 0xff));
    }
    EXPECT_EQ(HashBytes64(input, c.seed), c.hash)
        << "len=" << c.len << " seed=" << c.seed;
  }
  // Distinct seeds give distinct lanes; length is part of the hash.
  EXPECT_NE(HashBytes64("abc", 1), HashBytes64("abc", 2));
  EXPECT_NE(HashBytes64("", 1), HashBytes64(std::string(1, '\0'), 1));
}

TEST(SimdTermMergeTest, KernelsMatchScalarReference) {
  Rng rng(77);
  // Sorted unique key arrays with partial overlap, integer counts.
  std::vector<uint64_t> xk, yk;
  std::vector<double> xc, yc;
  uint64_t key = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double dot = 0.0;
  double min_sum = 0.0;
  for (int i = 0; i < 300; ++i) {
    key += 1 + rng.Below(3);
    const bool in_x = rng.Below(3) != 0;
    const bool in_y = !in_x || rng.Below(2) != 0;
    const double cx = in_x ? static_cast<double>(1 + rng.Below(9)) : 0.0;
    const double cy = in_y ? static_cast<double>(1 + rng.Below(9)) : 0.0;
    if (in_x) {
      xk.push_back(key);
      xc.push_back(cx);
    }
    if (in_y) {
      yk.push_back(key);
      yc.push_back(cy);
    }
    // The reference walks the key space in order, one key at a time.
    sum += cx;
    sum_sq += cx * cx;
    dot += cx * cy;
    min_sum += std::min(cx, cy);
  }
  EXPECT_EQ(simd::CountSum(xc.data(), xc.size()), sum);
  EXPECT_EQ(simd::CountSumSquares(xc.data(), xc.size()), sum_sq);
  EXPECT_EQ(simd::DotMerge(xk.data(), xc.data(), xk.size(), yk.data(),
                           yc.data(), yk.size()),
            dot);
  EXPECT_EQ(simd::MinSumMerge(xk.data(), xc.data(), xk.size(), yk.data(),
                              yc.data(), yk.size()),
            min_sum);
  for (uint64_t probe : {uint64_t{0}, xk.front(), xk.back(),
                         xk[xk.size() / 2] + 1, key + 100}) {
    size_t i = 0;
    while (i < xk.size() && xk[i] < probe) ++i;
    EXPECT_EQ(simd::LowerBoundKey(xk.data(), xk.size(), probe), i)
        << "probe=" << probe;
  }
}

// Satellite coverage: the per-state TNF memo inside LevenshteinHeuristic.
// Two estimates of the same state must encode once (one miss, one hit);
// a different state is a fresh miss.
TEST(LevenshteinMemoTest, TnfEncodingIsMemoizedPerState) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  LevenshteinHeuristic heuristic(pair.target, 32.0);
  EXPECT_EQ(heuristic.tnf_cache_hits(), 0u);
  EXPECT_EQ(heuristic.tnf_cache_misses(), 0u);

  const int first = heuristic.Estimate(pair.source);
  EXPECT_EQ(heuristic.tnf_cache_misses(), 1u);
  EXPECT_EQ(heuristic.tnf_cache_hits(), 0u);

  EXPECT_EQ(heuristic.Estimate(pair.source), first);
  EXPECT_EQ(heuristic.tnf_cache_misses(), 1u);
  EXPECT_EQ(heuristic.tnf_cache_hits(), 1u);

  (void)heuristic.Estimate(pair.target);
  EXPECT_EQ(heuristic.tnf_cache_misses(), 2u);
  EXPECT_EQ(heuristic.tnf_cache_hits(), 1u);
}

// EstimateCostBatch must return exactly what per-state EstimateCost
// returns, including for duplicate pointers within one batch.
TEST(EstimateBatchTest, MatchesSequentialEstimates) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem(
      pair.source, pair.target,
      std::make_unique<LevenshteinHeuristic>(pair.target, 32.0));

  const auto successors = problem.Expand(pair.source);
  ASSERT_GT(successors.size(), 1u);
  std::vector<const Database*> states;
  states.push_back(&pair.source);
  for (const auto& s : successors) states.push_back(&s.state);
  states.push_back(&pair.source);  // intra-batch duplicate

  std::vector<int> expected(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    expected[i] = problem.EstimateCost(*states[i]);
  }

  problem.TrimCaches();
  std::vector<int> batched(states.size());
  problem.EstimateCostBatch(std::span<const Database* const>(states),
                            std::span<int>(batched));
  EXPECT_EQ(batched, expected);

  // A second batch over warm caches must be pure lookups with the same
  // answers.
  std::vector<int> warm(states.size());
  problem.EstimateCostBatch(std::span<const Database* const>(states),
                            std::span<int>(warm));
  EXPECT_EQ(warm, expected);
}

// TSan section: the kernels, including a shared PreparedPattern, hammered
// from several threads at once. The workers recompute known answers, so
// shared state a kernel wrote to would also surface as a value mismatch.
TEST(SimdConcurrencyTest, ConcurrentKernelsAreRaceFree) {
  Rng seed_rng(11);
  const std::string a = RandomTnfish(seed_rng, 700);
  const std::string b = RandomTnfish(seed_rng, 650);
  const size_t expected_dist = simd::EditDistanceScalar(a, b);
  const uint64_t expected_hash = HashBytes64(a, 9);
  const simd::PreparedPattern prepared(a);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(simd::EditDistance(a, b), expected_dist);
        ASSERT_EQ(prepared.Distance(b), expected_dist);
        ASSERT_EQ(HashBytes64(a, 9), expected_hash);
        (void)t;
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace
}  // namespace tupelo

#ifndef TUPELO_COMMON_HASH_H_
#define TUPELO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace tupelo {

// Mixes `value`'s hash into `seed` (boost::hash_combine recipe, 64-bit).
template <typename T>
void HashCombine(size_t* seed, const T& value) {
  *seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ULL + (*seed << 6) +
           (*seed >> 2);
}

// FNV-1a over a byte string; stable across runs (unlike std::hash, which is
// allowed to be per-process salted). Used for canonical state fingerprints.
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// FNV-1a with a caller-chosen basis, for independent hash lanes. Distinct
// seeds give hash functions whose collisions are unrelated, which is what
// makes a 128-bit two-lane fingerprint trustworthy as an identity.
inline uint64_t Fnv1aSeeded(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Seeded bulk hash for in-memory keys (term keys, transient indexes):
// four interleaved FNV-style stripes over 32-byte blocks, folded through
// Mix64, in one portable SWAR loop. Term keys are built from it, so its
// values are pinned by a known-answer test (tests/simd_test.cc). Chain
// components by feeding one call's result as the next call's seed.
// NOT a replacement for Fnv1a/Fnv1aSeeded where the byte-serial
// recurrence is part of a persisted format (checkpoint checksums,
// canonical state fingerprints). Implemented in simd/hash_kernels.cc.
uint64_t HashBytes64(std::string_view bytes, uint64_t seed);

// splitmix64 finalizer: a cheap full-avalanche bijection. Applied before
// commutative (wrapping-sum) combines so that structured inputs do not
// cancel each other out.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Sequential (order-sensitive) combine of a pre-mixed word into a running
// hash. FNV-style multiply keeps it cheap; Mix64 on the input keeps one
// low-entropy word from washing out the accumulator.
inline uint64_t HashChain(uint64_t h, uint64_t word) {
  return (h ^ Mix64(word)) * 0x100000001b3ULL;
}

// A 128-bit structural fingerprint: two independently seeded 64-bit lanes.
// Equality of both lanes is treated as state identity by the search-layer
// caches; a single 64-bit lane collides too easily once caches hold
// millions of distinct states (birthday bound ~2^32).
struct Fp128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Fp128&, const Fp128&) = default;

  // Commutative combine/uncombine: wrapping sums per lane, so a database
  // fingerprint can be updated incrementally as relations are put/removed.
  void Add(const Fp128& other) {
    lo += other.lo;
    hi += other.hi;
  }
  void Subtract(const Fp128& other) {
    lo -= other.lo;
    hi -= other.hi;
  }
};

// The two lane bases: the standard FNV offset basis and an arbitrary
// odd constant far from it (digits of phi), fed through Mix64 so the
// lanes start with unrelated bit patterns.
inline constexpr uint64_t kFpSeedLo = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFpSeedHi = 0x9e3779b97f4a7c15ULL;

struct Fp128Hash {
  size_t operator()(const Fp128& fp) const {
    return static_cast<size_t>(Mix64(fp.lo ^ Mix64(fp.hi)));
  }
};

}  // namespace tupelo

#endif  // TUPELO_COMMON_HASH_H_

// HashBytes64: the bulk hash behind common/hash.h. Four interleaved
// FNV-style stripes over 32-byte blocks, folded through Mix64, in one
// portable SWAR loop. The function is seeded, so callers chain component
// hashes (seed = previous hash) the way term keys are built in
// heuristics/term_vector.cc.
//
// This is deliberately NOT byte-serial FNV-1a (common/hash.h): that
// recurrence carries a loop dependency per byte and cannot be
// vectorized. Canonical-format hashes that are persisted (checkpoint
// .tck checksums, Fnv1a state fingerprints) keep the old function;
// HashBytes64 is for in-memory keys where only self-consistency matters.

#include <cstring>

#include "common/hash.h"

namespace tupelo {
namespace {

constexpr uint64_t kStripePrime = 0x100000001b3ULL;

// Distinct initial stripe states derived from the seed; the constants
// are arbitrary odd 64-bit values (digits of e and pi) so the four
// stripes start decorrelated even for seed 0.
inline void InitStripes(uint64_t seed, uint64_t s[4]) {
  s[0] = Mix64(seed ^ 0xa5a3ed4f2f1c0e95ULL);
  s[1] = Mix64(seed ^ 0x243f6a8885a308d3ULL);
  s[2] = Mix64(seed ^ 0x13198a2e03707344ULL);
  s[3] = Mix64(seed ^ 0x9216d5d98979fb1bULL);
}

inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

// The stripe step over full 32-byte blocks. Each stripe eats
// the i-th u64 of the block: xor then multiply by an odd constant — a
// bijection in the word, so two inputs differing in one word never
// collide within a stripe step.
void HashBlocks(const unsigned char* data, size_t blocks, uint64_t s[4]) {
  for (size_t b = 0; b < blocks; ++b) {
    const unsigned char* p = data + 32 * b;
    s[0] = (s[0] ^ LoadLe64(p)) * kStripePrime;
    s[1] = (s[1] ^ LoadLe64(p + 8)) * kStripePrime;
    s[2] = (s[2] ^ LoadLe64(p + 16)) * kStripePrime;
    s[3] = (s[3] ^ LoadLe64(p + 24)) * kStripePrime;
  }
}

}  // namespace

uint64_t HashBytes64(std::string_view bytes, uint64_t seed) {
  uint64_t s[4];
  InitStripes(seed, s);

  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(bytes.data());
  const size_t n = bytes.size();
  const size_t blocks = n / 32;

  HashBlocks(data, blocks, s);

  // Tail: zero-pad the final partial block and run one more stripe step.
  // The length fold below keeps "a" and "a\0" distinct.
  const size_t rem = n - 32 * blocks;
  if (rem > 0) {
    unsigned char tail[32] = {0};
    std::memcpy(tail, data + 32 * blocks, rem);
    HashBlocks(tail, 1, s);
  }

  uint64_t h = seed ^ Mix64(s[0]);
  h = HashChain(h, s[1]);
  h = HashChain(h, s[2]);
  h = HashChain(h, s[3]);
  return Mix64(h ^ static_cast<uint64_t>(n));
}

}  // namespace tupelo

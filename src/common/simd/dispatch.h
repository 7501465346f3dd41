#ifndef TUPELO_COMMON_SIMD_DISPATCH_H_
#define TUPELO_COMMON_SIMD_DISPATCH_H_

#include <string_view>

namespace tupelo::simd {

// The host CPU's ISA level, as recorded in benchmark reports
// (`simd_dispatch`). Levels are cumulative: a tier implies everything
// below it.
//
//   kScalar  no SSE4.2 (or not x86-64)
//   kSse42   SSE4.2
//   kAvx2    AVX2
//
// This is a descriptor only: no kernel branches on it. Each kernel in
// common/simd has one portable implementation (Myers bit-parallel edit
// distance, the SWAR 4-stripe hash, plain merge loops); AVX2 variants
// measured slower on the vector heuristics (docs/PERFORMANCE.md, "SIMD
// kernel layer").
enum class Level : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};

// "scalar", "sse42", "avx2".
std::string_view LevelName(Level level);

// The running CPU's level, probed once.
Level ActiveLevel();

}  // namespace tupelo::simd

#endif  // TUPELO_COMMON_SIMD_DISPATCH_H_

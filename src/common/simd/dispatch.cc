#include "common/simd/dispatch.h"

namespace tupelo::simd {
namespace {

Level ProbeCpu() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return Level::kSse42;
#endif
  return Level::kScalar;
}

}  // namespace

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse42:
      return "sse42";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Level ActiveLevel() {
  static const Level level = ProbeCpu();
  return level;
}

}  // namespace tupelo::simd

#include "core/simd_dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/arena_kernels.h"

namespace trel {
namespace {

SimdLevel DetectHighest() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

const ArenaKernels& Resolve() {
  const SimdLevel supported = HighestSupportedSimdLevel();
  SimdLevel level = RequestedSimdLevel(supported);
  if (static_cast<int>(level) > static_cast<int>(supported)) {
    std::fprintf(stderr,
                 "trel: TREL_SIMD=%s is not executable on this host; "
                 "falling back to %s\n",
                 SimdLevelName(level), SimdLevelName(supported));
    level = supported;
  }
  // On a non-x86 build the chosen TU may itself have degraded to scalar
  // code; the table it hands back is authoritative, not the request.
  return KernelsForLevel(level);
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel HighestSupportedSimdLevel() {
  static const SimdLevel kLevel = DetectHighest();
  return kLevel;
}

SimdLevel RequestedSimdLevel(SimdLevel fallback) {
  const char* env = std::getenv("TREL_SIMD");
  if (env == nullptr || env[0] == '\0') return fallback;
  if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(env, "avx2") == 0) return SimdLevel::kAvx2;
  std::fprintf(stderr,
               "trel: ignoring unrecognized TREL_SIMD=\"%s\" "
               "(expected scalar|avx2)\n",
               env);
  return fallback;
}

const ArenaKernels& KernelsForLevel(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return Avx2ArenaKernels();
    case SimdLevel::kScalar:
      break;
  }
  return ScalarArenaKernels();
}

const ArenaKernels& ActiveKernels() {
  static const ArenaKernels& kKernels = Resolve();
  return kKernels;
}

SimdLevel ActiveSimdLevel() { return ActiveKernels().level; }

}  // namespace trel

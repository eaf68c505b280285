// Unit tests for the runtime SIMD dispatcher.  ci.sh's --simd-matrix
// stage runs this binary once per TREL_SIMD level, so the
// ActiveRespectsRequest test doubles as the guard that a requested,
// host-supported level is honored exactly (and anything else clamps).

#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "core/arena_kernels.h"
#include "core/simd_dispatch.h"

namespace trel {
namespace {

int L(SimdLevel level) { return static_cast<int>(level); }

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  // The exported gauge values stay put across the retired SSE4.2 tier.
  EXPECT_EQ(L(SimdLevel::kScalar), 0);
  EXPECT_EQ(L(SimdLevel::kAvx2), 2);
}

TEST(SimdDispatchTest, DetectionIsStable) {
  const SimdLevel a = HighestSupportedSimdLevel();
  const SimdLevel b = HighestSupportedSimdLevel();
  EXPECT_EQ(a, b);
  EXPECT_GE(L(a), L(SimdLevel::kScalar));
  EXPECT_LE(L(a), L(SimdLevel::kAvx2));
}

TEST(SimdDispatchTest, TablesAreCompleteAndHonest) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const ArenaKernels& table = KernelsForLevel(level);
    // A table may degrade (non-x86 build) but never report MORE than was
    // asked for, and must always be fully populated.
    EXPECT_LE(L(table.level), L(level)) << SimdLevelName(level);
    EXPECT_NE(table.name, nullptr);
    EXPECT_NE(table.extras_contains, nullptr);
    EXPECT_NE(table.filter_intersects, nullptr);
    EXPECT_NE(table.batch_reaches, nullptr);
    EXPECT_STREQ(table.name, SimdLevelName(table.level));
  }
  EXPECT_EQ(KernelsForLevel(SimdLevel::kScalar).level, SimdLevel::kScalar);
}

TEST(SimdDispatchTest, RequestedLevelParsesEnvironment) {
  // Read-only: does not mutate TREL_SIMD (other tests in this process
  // depend on the ambient value).
  const char* env = std::getenv("TREL_SIMD");
  const SimdLevel fallback = SimdLevel::kScalar;
  const SimdLevel requested = RequestedSimdLevel(fallback);
  if (env == nullptr || env[0] == '\0') {
    EXPECT_EQ(requested, fallback);
  } else if (std::strcmp(env, "scalar") == 0) {
    EXPECT_EQ(requested, SimdLevel::kScalar);
  } else if (std::strcmp(env, "avx2") == 0) {
    EXPECT_EQ(requested, SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(requested, fallback);  // Unknown values warn and fall back.
  }
}

TEST(SimdDispatchTest, ActiveRespectsRequest) {
  const SimdLevel supported = HighestSupportedSimdLevel();
  const SimdLevel requested = RequestedSimdLevel(supported);
  const SimdLevel active = ActiveSimdLevel();

  // The dispatcher must never hand out a level the host can't execute,
  // regardless of the environment.
  ASSERT_LE(L(active), L(supported));
  EXPECT_EQ(&ActiveKernels(), &KernelsForLevel(active));

  // A host-executable request must be honored exactly — modulo a build
  // whose kernel TU degraded to scalar (non-x86), where the table is
  // authoritative.
  const SimdLevel granted =
      L(requested) <= L(supported) ? requested : supported;
  EXPECT_EQ(active, KernelsForLevel(granted).level);
}

}  // namespace
}  // namespace trel

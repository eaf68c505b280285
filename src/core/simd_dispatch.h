#ifndef TREL_CORE_SIMD_DISPATCH_H_
#define TREL_CORE_SIMD_DISPATCH_H_

namespace trel {

struct ArenaKernels;

// Vector instruction tiers the arena query kernels are specialized for.
// Values are ordered: a higher level strictly extends the ISA of every
// lower one, so "clamp to the highest supported" is a plain min().  The
// numbers are exported as the trel_simd_level gauge; 1 (a retired SSE4.2
// tier) stays unused so they keep their meaning.
enum class SimdLevel : int {
  kScalar = 0,  // portable C++, any target
  kAvx2 = 2,    // x86-64 with AVX2 (256-bit lanes)
};

// "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

// Highest level this host can execute, probed once via cpuid (the
// compiler builtins handle the OSXSAVE dance for AVX state).  Always
// kScalar on non-x86 targets.
SimdLevel HighestSupportedSimdLevel();

// The level requested through the TREL_SIMD environment variable
// (scalar|avx2), or `fallback` when the variable is unset or unparseable
// (a bad value warns once on stderr).
SimdLevel RequestedSimdLevel(SimdLevel fallback);

// Kernel table for one level.  The returned table's `level` field may be
// LOWER than requested when the matching TU was compiled without the ISA
// (non-x86 build): callers must treat the table, not the request, as
// authoritative.
const ArenaKernels& KernelsForLevel(SimdLevel level);

// The process-wide kernel table: TREL_SIMD override if set, else the
// highest host-supported level, clamped to what the host can execute so
// a stale env var can never cause an illegal instruction.  Resolved once
// on first use and cached.
const ArenaKernels& ActiveKernels();

// Level of ActiveKernels(), for metrics and tooling.
SimdLevel ActiveSimdLevel();

// Per-level tables, each defined in its own translation unit so vector
// flags never leak into common objects (see src/core/CMakeLists.txt).
// A TU compiled without its ISA returns the scalar table.
const ArenaKernels& ScalarArenaKernels();
const ArenaKernels& Avx2ArenaKernels();

}  // namespace trel

#endif  // TREL_CORE_SIMD_DISPATCH_H_

// Portable scalar arena kernels: the reference implementation every
// vector level must match bit-for-bit, and the fallback table on hosts
// (or targets) without AVX2.  Compiled with the project's baseline
// flags only — no vector ISA.

#define TREL_KERNEL_VARIANT 0
#include "core/arena_kernels_impl.h"

namespace trel {

const ArenaKernels& ScalarArenaKernels() {
  static const ArenaKernels kTable{SimdLevel::kScalar, "scalar",
                                   &KernelExtrasContains,
                                   &KernelFilterIntersects,
                                   &KernelBatchReaches,
                                   &KernelBatchReachesTagged};
  return kTable;
}

}  // namespace trel

// Implementation body for one arena-kernel translation unit.  NOT a
// normal header: arena_kernels_{scalar,avx2}.cc each define
// TREL_KERNEL_VARIANT (0 = portable scalar, 2 = AVX2) and include this
// file exactly once; the TU is compiled with that level's vector flags
// (see src/core/CMakeLists.txt), so the intrinsics below never leak into
// commonly-compiled objects.  Every variant computes
// bit-identical answers — they differ only in how the compare work of
// short-run scans and 512-bit filter tests is issued, and the batch
// engine's pipeline structure is shared verbatim.

#ifndef TREL_KERNEL_VARIANT
#error "arena_kernels_impl.h must be included with TREL_KERNEL_VARIANT set"
#endif

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/arena_kernels.h"
#include "core/label_arena.h"

#if TREL_KERNEL_VARIANT == 2
#include <immintrin.h>
#endif

namespace trel {
namespace {

// Extras runs at or below this length are scanned linearly (wide
// compares cover the whole run in a handful of instructions, with no
// dependent-load chain); longer runs descend the Eytzinger tree.  Sized
// per variant: 32 AVX2 intervals are 256 bytes, eight registers.
#if TREL_KERNEL_VARIANT == 2
constexpr uint32_t kLinearScanMax = 32;
#else
constexpr uint32_t kLinearScanMax = 4;
#endif

// True iff some interval of a[0..k) contains x.  Order-independent, so
// it works directly on the Eytzinger-permuted run.
#if TREL_KERNEL_VARIANT == 2

// Lane mask of the intervals in a[0..4) that contain x, as bits 0, 2, 4
// and 6.  One 256-bit register holds four 8-byte intervals
// [lo0 hi0 lo1 hi1 lo2 hi2 lo3 hi3].  A lane is "bad" when its bound
// excludes x: lo > x for even lanes, x > hi for odd lanes; an interval
// hits iff both of its lanes are good.  AVX2 compares only signed 32-bit
// lanes, so both sides arrive with their sign bit flipped (`xs` already
// is): that maps unsigned order onto signed order, and labels at or
// above 2^31 compare correctly.
inline unsigned HitLanes(const ArenaInterval* a, __m256i xs) {
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i p = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)), sign);
  const __m256i bad = _mm256_blend_epi32(_mm256_cmpgt_epi32(p, xs),
                                         _mm256_cmpgt_epi32(xs, p), 0xAA);
  const unsigned good =
      ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(bad)));
  return good & (good >> 1) & 0x55u;
}

inline bool LinearScanHit(const ArenaInterval* a, uint32_t k, ArenaLabel x) {
  const __m256i xs =
      _mm256_set1_epi32(static_cast<int32_t>(x ^ 0x80000000u));
  unsigned hits = 0;
  uint32_t i = 0;
  // Two registers (8 intervals) per iteration, then one, then a scalar
  // tail of at most three.
  for (; i + 8 <= k; i += 8) {
    hits |= HitLanes(a + i, xs) | HitLanes(a + i + 4, xs);
  }
  if (i + 4 <= k) {
    hits |= HitLanes(a + i, xs);
    i += 4;
  }
  for (; i < k; ++i) {
    hits |= static_cast<unsigned>(a[i].lo <= x) &
            static_cast<unsigned>(x <= a[i].hi);
  }
  return hits != 0;
}

inline bool FilterIntersectsImpl(const uint64_t* filter,
                                 const uint64_t* mask) {
  const __m256i a0 = _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(filter)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask)));
  const __m256i a1 = _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(filter + 4)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + 4)));
  const __m256i any = _mm256_or_si256(a0, a1);
  return _mm256_testz_si256(any, any) == 0;
}

#else  // scalar

inline bool LinearScanHit(const ArenaInterval* a, uint32_t k, ArenaLabel x) {
  // Branch-free accumulate: short runs mispredict badly under random
  // probes, and the compiler can unroll this form.
  unsigned hit = 0;
  for (uint32_t i = 0; i < k; ++i) {
    hit |= static_cast<unsigned>(a[i].lo <= x) &
           static_cast<unsigned>(x <= a[i].hi);
  }
  return hit != 0;
}

inline bool FilterIntersectsImpl(const uint64_t* filter,
                                 const uint64_t* mask) {
  uint64_t any = 0;
  for (int w = 0; w < 8; ++w) any |= filter[w] & mask[w];
  return any != 0;
}

#endif  // TREL_KERNEL_VARIANT

// The PR 3 descent, unchanged: smallest hi >= x decides via its lo
// (antichain invariant), grandchildren prefetched along the way.
inline bool EytzingerDescent(const ArenaInterval* base, uint32_t k,
                             ArenaLabel x) {
  uint32_t i = 1, cand = 0;
  while (i <= k) {
    __builtin_prefetch(base + 4 * static_cast<size_t>(i));
    if (base[i].hi >= x) {
      cand = i;
      i = 2 * i;
    } else {
      i = 2 * i + 1;
    }
  }
  return cand != 0 && base[cand].lo <= x;
}

bool KernelExtrasContains(const ArenaInterval* base, uint32_t count,
                          ArenaLabel x) {
  // Summary reject (base[0] = {min lo, max hi} of the run).
  if (x < base[0].lo || x > base[0].hi) return false;
  if (count <= kLinearScanMax) return LinearScanHit(base + 1, count, x);
  return EytzingerDescent(base, count, x);
}

bool KernelFilterIntersects(const uint64_t* filter, const uint64_t* mask) {
  return FilterIntersectsImpl(filter, mask);
}

// --- Software-pipelined batch engine ---------------------------------------
//
// Three stages, kept K queries apart so the dependent cache misses of
// different queries overlap instead of serializing:
//   A. kPrefetchDistance ahead of the resolve point, issue prefetches
//      for the source slot, the source's filter line, and the target
//      slot (independent loads — no use yet).
//   B. at the resolve point the slot lines have usually arrived: decide
//      invalid / self / first-interval / no-extras queries outright and
//      kill most of the rest with the one-bit coverage-filter test.
//   C. survivors (filter hits) are *queued* behind a prefetch of their
//      extras run; once kMaxPending have accumulated, short runs are
//      answered with one vector scan each and long runs descend their
//      Eytzinger trees in lockstep — every live descent advances one
//      level per round, so K dependent misses are in flight at once.
//
// Runs of >= kGroupMin consecutive queries sharing a source take a
// grouped path instead: the source slot is resolved once, the
// undecided targets' buckets are accumulated into a 512-bit mask, and a
// single whole-line filter intersection test rejects the entire group's
// extras work when no target bucket overlaps the source's coverage.
//
// Batches of <= kSmallBatchMax queries bypass the pipeline entirely: a
// plain prefetch-ahead loop with immediate extras resolution.  At small
// n the pending-queue/flush machinery and the grouped path's mask setup
// cost more than the overlapped misses save (the PR 4 128-query
// hot-cache regression), and a hot cache means there is little miss
// latency to overlap in the first place.  The bypass shares this TU's
// compare primitives, so answers stay bit-identical across levels; its
// stats never include group_rejects (no grouping below the threshold).
//
// The engine is templated on kTagged: the tagged instantiation
// additionally writes the deciding ProbeTag per query for the obs
// tracer, the untagged one compiles to exactly the pre-tracing code.

constexpr int64_t kPrefetchDistance = 8;
constexpr int kMaxPending = 8;
constexpr int64_t kGroupMin = 16;
constexpr int64_t kGroupMax = 256;
constexpr int64_t kSmallBatchMax = 192;

template <bool kTagged>
void KernelBatchReachesImpl(const LabelArena& arena,
                            const std::pair<NodeId, NodeId>* pairs, int64_t n,
                            uint8_t* out, BatchKernelStats* stats_out,
                            uint8_t* tags) {
  BatchKernelStats stats;
  const LabelArena::NodeSlot* slots = arena.slots.data();
  const ArenaInterval* extras = arena.extras.data();
  const uint64_t* filters = arena.filters.data();
  const uint32_t num = static_cast<uint32_t>(arena.num_nodes());
  const int shift = arena.filter_shift;
  constexpr uint64_t kBuckets =
      static_cast<uint64_t>(LabelArena::kFilterWords) * 64;
  const auto valid = [num](NodeId id) {
    return static_cast<uint32_t>(id) < num;
  };
  const auto set_tag = [tags](int64_t idx, ProbeTag t) {
    if constexpr (kTagged) {
      tags[idx] = static_cast<uint8_t>(t);
    } else {
      (void)tags;
      (void)idx;
      (void)t;
    }
  };

  if (n <= kSmallBatchMax) {
    // Small-batch bypass: no pending queue, no grouping — resolve each
    // query in order with the prefetcher running kPrefetchDistance ahead.
    for (int64_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) {
        const auto& ahead = pairs[i + kPrefetchDistance];
        if (valid(ahead.first)) {
          __builtin_prefetch(slots + ahead.first);
          __builtin_prefetch(filters + static_cast<size_t>(ahead.first) *
                                           LabelArena::kFilterWords);
        }
        if (valid(ahead.second)) __builtin_prefetch(slots + ahead.second);
      }
      const NodeId u = pairs[i].first;
      const NodeId v = pairs[i].second;
      if (!valid(u) || !valid(v)) {
        out[i] = 0;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      if (u == v) {
        out[i] = 1;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      const LabelArena::NodeSlot& s = slots[u];
      const ArenaLabel x = slots[v].postorder;
      if (x < s.first.lo || x <= s.first.hi || s.extra_count == 0) {
        out[i] = (x >= s.first.lo && x <= s.first.hi) ? 1 : 0;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      const uint64_t b = static_cast<uint64_t>(x) >> shift;
      if (b >= kBuckets ||
          ((filters[static_cast<size_t>(u) * LabelArena::kFilterWords +
                    (b >> 6)] >>
            (b & 63)) &
           1) == 0) {
        out[i] = 0;
        ++stats.filter_rejects;
        set_tag(i, ProbeTag::kFilterReject);
        continue;
      }
      ++stats.extras_searches;
      set_tag(i, ProbeTag::kExtrasSearch);
      out[i] =
          KernelExtrasContains(extras + s.extra_begin, s.extra_count, x) ? 1
                                                                         : 0;
    }
    if (stats_out != nullptr) *stats_out += stats;
    return;
  }

  struct Pending {
    const ArenaInterval* base;
    uint32_t count;
    ArenaLabel x;
    int64_t idx;
  };
  Pending pend[kMaxPending];
  int np = 0;

  struct Descent {
    const ArenaInterval* base;
    uint32_t i;
    uint32_t cand;
    uint32_t k;
    ArenaLabel x;
    int64_t idx;
  };

  const auto flush = [&] {
    Descent live[kMaxPending];
    int nl = 0;
    for (int p = 0; p < np; ++p) {
      const Pending& q = pend[p];
      ++stats.extras_searches;
      if (q.x < q.base[0].lo || q.x > q.base[0].hi) {
        out[q.idx] = 0;  // Summary reject.
        continue;
      }
      if (q.count <= kLinearScanMax) {
        out[q.idx] = LinearScanHit(q.base + 1, q.count, q.x) ? 1 : 0;
        continue;
      }
      live[nl++] = Descent{q.base, 1, 0, q.count, q.x, q.idx};
    }
    np = 0;
    // Lockstep descents: one level per query per round.
    while (nl > 0) {
      int p = 0;
      while (p < nl) {
        Descent& d = live[p];
        if (d.i <= d.k) {
          __builtin_prefetch(d.base + 4 * static_cast<size_t>(d.i));
          if (d.base[d.i].hi >= d.x) {
            d.cand = d.i;
            d.i = 2 * d.i;
          } else {
            d.i = 2 * d.i + 1;
          }
          ++p;
        } else {
          out[d.idx] = (d.cand != 0 && d.base[d.cand].lo <= d.x) ? 1 : 0;
          live[p] = live[--nl];  // Retire; recheck the swapped-in entry.
        }
      }
    }
  };

  int64_t i = 0;
  while (i < n) {
    const NodeId u = pairs[i].first;
    int64_t j = i + 1;
    if (valid(u)) {
      const int64_t cap = std::min<int64_t>(n, i + kGroupMax);
      while (j < cap && pairs[j].first == u) ++j;
    }

    if (j - i >= kGroupMin) {
      flush();
      const LabelArena::NodeSlot s = slots[u];
      const uint64_t* filter =
          filters + static_cast<size_t>(u) * LabelArena::kFilterWords;
      __builtin_prefetch(filter);
      uint64_t mask[LabelArena::kFilterWords] = {};
      int64_t undecided_idx[kGroupMax];
      ArenaLabel undecided_x[kGroupMax];
      int64_t nu = 0;
      for (int64_t q = i; q < j; ++q) {
        if (q + kPrefetchDistance < j) {
          const NodeId ahead = pairs[q + kPrefetchDistance].second;
          if (valid(ahead)) __builtin_prefetch(slots + ahead);
        }
        const NodeId v = pairs[q].second;
        if (!valid(v)) {
          out[q] = 0;
          ++stats.fast_path;
          set_tag(q, ProbeTag::kSlot);
          continue;
        }
        if (u == v) {
          out[q] = 1;
          ++stats.fast_path;
          set_tag(q, ProbeTag::kSlot);
          continue;
        }
        const ArenaLabel x = slots[v].postorder;
        if (x < s.first.lo) {
          out[q] = 0;
          ++stats.fast_path;
          set_tag(q, ProbeTag::kSlot);
          continue;
        }
        if (x <= s.first.hi) {
          out[q] = 1;
          ++stats.fast_path;
          set_tag(q, ProbeTag::kSlot);
          continue;
        }
        if (s.extra_count == 0) {
          out[q] = 0;
          ++stats.fast_path;
          set_tag(q, ProbeTag::kSlot);
          continue;
        }
        const uint64_t b = static_cast<uint64_t>(x) >> shift;
        if (b >= kBuckets) {
          out[q] = 0;
          ++stats.filter_rejects;
          set_tag(q, ProbeTag::kFilterReject);
          continue;
        }
        mask[b >> 6] |= uint64_t{1} << (b & 63);
        undecided_idx[nu] = q;
        undecided_x[nu] = x;
        ++nu;
      }
      if (nu > 0) {
        if (!KernelFilterIntersects(filter, mask)) {
          for (int64_t q = 0; q < nu; ++q) {
            out[undecided_idx[q]] = 0;
            set_tag(undecided_idx[q], ProbeTag::kGroupReject);
          }
          stats.group_rejects += nu;
        } else {
          const ArenaInterval* base = extras + s.extra_begin;
          for (int64_t q = 0; q < nu; ++q) {
            const ArenaLabel x = undecided_x[q];
            const uint64_t b = static_cast<uint64_t>(x) >> shift;
            if (((filter[b >> 6] >> (b & 63)) & 1) == 0) {
              out[undecided_idx[q]] = 0;
              ++stats.filter_rejects;
              set_tag(undecided_idx[q], ProbeTag::kFilterReject);
              continue;
            }
            ++stats.extras_searches;
            set_tag(undecided_idx[q], ProbeTag::kExtrasSearch);
            out[undecided_idx[q]] =
                KernelExtrasContains(base, s.extra_count, x) ? 1 : 0;
          }
        }
      }
      i = j;
      continue;
    }

    for (; i < j; ++i) {
      // Stage A.
      if (i + kPrefetchDistance < n) {
        const auto& ahead = pairs[i + kPrefetchDistance];
        if (valid(ahead.first)) {
          __builtin_prefetch(slots + ahead.first);
          __builtin_prefetch(filters + static_cast<size_t>(ahead.first) *
                                           LabelArena::kFilterWords);
        }
        if (valid(ahead.second)) __builtin_prefetch(slots + ahead.second);
      }
      // Stage B.
      const NodeId uu = pairs[i].first;
      const NodeId v = pairs[i].second;
      if (!valid(uu) || !valid(v)) {
        out[i] = 0;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      if (uu == v) {
        out[i] = 1;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      const LabelArena::NodeSlot& s = slots[uu];
      const ArenaLabel x = slots[v].postorder;
      if (x < s.first.lo) {
        out[i] = 0;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      if (x <= s.first.hi) {
        out[i] = 1;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      if (s.extra_count == 0) {
        out[i] = 0;
        ++stats.fast_path;
        set_tag(i, ProbeTag::kSlot);
        continue;
      }
      const uint64_t b = static_cast<uint64_t>(x) >> shift;
      if (b >= kBuckets ||
          ((filters[static_cast<size_t>(uu) * LabelArena::kFilterWords +
                    (b >> 6)] >>
            (b & 63)) &
           1) == 0) {
        out[i] = 0;
        ++stats.filter_rejects;
        set_tag(i, ProbeTag::kFilterReject);
        continue;
      }
      // Stage C.  Tagged at enqueue: everything that reaches the pending
      // queue counts as (and is tallied as) an extras search.
      const ArenaInterval* base = extras + s.extra_begin;
      __builtin_prefetch(base);
      set_tag(i, ProbeTag::kExtrasSearch);
      pend[np++] = Pending{base, s.extra_count, x, i};
      if (np == kMaxPending) flush();
    }
  }
  flush();
  if (stats_out != nullptr) *stats_out += stats;
}

void KernelBatchReaches(const LabelArena& arena,
                        const std::pair<NodeId, NodeId>* pairs, int64_t n,
                        uint8_t* out, BatchKernelStats* stats_out) {
  KernelBatchReachesImpl<false>(arena, pairs, n, out, stats_out, nullptr);
}

void KernelBatchReachesTagged(const LabelArena& arena,
                              const std::pair<NodeId, NodeId>* pairs, int64_t n,
                              uint8_t* out, BatchKernelStats* stats_out,
                              uint8_t* tags) {
  KernelBatchReachesImpl<true>(arena, pairs, n, out, stats_out, tags);
}

}  // namespace
}  // namespace trel

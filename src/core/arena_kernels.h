#ifndef TREL_CORE_ARENA_KERNELS_H_
#define TREL_CORE_ARENA_KERNELS_H_

#include <cstdint>
#include <utility>

#include "core/label_arena.h"
#include "core/simd_dispatch.h"

namespace trel {

// How a single reachability probe was decided — the per-query analogue
// of the BatchKernelStats tallies.  Values are stable across SimD levels
// (the control flow that assigns them is shared by every kernel TU) and
// fit the 3-bit field of an obs trace record.
enum class ProbeTag : uint8_t {
  kSlot = 0,          // decided by slots alone (invalid, self, first interval)
  kFilterReject = 1,  // killed by the source's one-bit coverage-filter test
  kGroupReject = 2,   // killed by a whole-group 512-bit filter test (batch)
  kExtrasSearch = 3,  // searched an extras run (vector scan or descent)
  kOverlay = 4,       // resolved against a WithDelta overlay entry
  kFallback = 5,      // TreeCoverIndex's DFS, or a pair deferred to its shard
  kBoundaryBitset = 6,  // decided by a cross-shard hub-bitset row intersection
};
constexpr int kNumProbeTags = 7;

// "slot" / "filter" / "group" / "extras" / "overlay" / "fallback" /
// "boundary".
const char* ProbeTagName(ProbeTag tag);

// Per-probe outcome detail filled by the traced query paths (sampled
// queries only — the untraced hot paths never touch this).
struct ProbeTrace {
  ProbeTag tag = ProbeTag::kSlot;
  // Intervals the probe actually compared against: the scan length for
  // linear scans, the number of tree levels for Eytzinger descents, 1
  // for a summary reject, 0 when the probe never reached the extras.
  uint32_t extras_probes = 0;
};

// Tallies from one batch-kernel invocation.  Accumulated in plain locals
// inside the kernel (never atomically on the hot path) and published to
// ServiceMetrics by the query service afterwards.
struct BatchKernelStats {
  // Queries decided by slots alone: invalid ids, u == v, the target
  // number hitting (or falling below) the source's inline first interval,
  // or a source with no extras.
  int64_t fast_path = 0;
  // Queries killed by the source's coverage filter (single-bit test).
  int64_t filter_rejects = 0;
  // Queries killed wholesale by a one-shot 512-bit group filter test
  // (runs of equal sources; see the batch engine).
  int64_t group_rejects = 0;
  // Queries that had to search an extras run (vector scan or descent).
  int64_t extras_searches = 0;

  BatchKernelStats& operator+=(const BatchKernelStats& o) {
    fast_path += o.fast_path;
    filter_rejects += o.filter_rejects;
    group_rejects += o.group_rejects;
    extras_searches += o.extras_searches;
    return *this;
  }
};

// Function table for the arena's vector-specializable query kernels.
// One table per SimdLevel, each defined in an isolated TU compiled with
// exactly that level's flags (arena_kernels_{scalar,avx2}.cc); the
// process picks a table once at startup via simd_dispatch.h.  Every
// level computes bit-identical answers — levels differ only in how the
// compare work is issued.
struct ArenaKernels {
  SimdLevel level;
  const char* name;

  // True iff some interval of the extras run `base[0..count]` contains
  // `x` (summary interval at base[0], Eytzinger tree at 1..count — see
  // label_arena.h).  Intervals are 8 bytes, two unsigned 32-bit
  // endpoints, and `x` may be any 32-bit label: every level orders labels
  // as unsigned, including those at or above 2^31.  Called only after
  // the coverage filter passed.  Short runs are scanned with wide
  // compares; long runs descend the Eytzinger tree.
  bool (*extras_contains)(const ArenaInterval* base, uint32_t count,
                          ArenaLabel x);

  // 512-bit any-intersection test over one node's coverage-filter line:
  // (filter[i] & mask[i]) != 0 for some i in [0, kFilterWords).
  bool (*filter_intersects)(const uint64_t* filter, const uint64_t* mask);

  // Software-pipelined batch point-lookup engine over an overlay-free
  // arena.  Snapshot semantics: out-of-range ids answer 0.  `stats` may
  // be null.
  void (*batch_reaches)(const LabelArena& arena,
                        const std::pair<NodeId, NodeId>* pairs, int64_t n,
                        uint8_t* out, BatchKernelStats* stats);

  // Tagged twin of batch_reaches for sampled/traced batches: identical
  // answers and stats, plus `tags[i]` = the ProbeTag that decided query
  // i.  A separate instantiation (not a branch inside the hot engine) so
  // the untraced path's codegen is untouched when tracing is off.
  void (*batch_reaches_tagged)(const LabelArena& arena,
                               const std::pair<NodeId, NodeId>* pairs,
                               int64_t n, uint8_t* out,
                               BatchKernelStats* stats, uint8_t* tags);
};

// The hot single-query membership probe: true iff some interval of `u`
// contains `x`.  The inline first-interval test, then the one-bit
// coverage-filter reject, then the extras search routed through the
// dispatched kernel so short runs get the vector scan — about two
// dependent misses end to end on large arenas.  The indirect call only
// happens on the minority of probes that survive the filter.
inline bool ArenaContains(const LabelArena& arena, const ArenaKernels& kernels,
                          NodeId u, ArenaLabel x) {
  const LabelArena::NodeSlot& s = arena.slots[u];
  if (x < s.first.lo) return false;  // Antichain: every lo is >= first.lo.
  if (x <= s.first.hi) return true;
  if (s.extra_count == 0) return false;
  const ArenaInterval* base = arena.extras.data() + s.extra_begin;
  __builtin_prefetch(base);
  const uint64_t b = static_cast<uint64_t>(x) >> arena.filter_shift;
  // Labels past the last bucket exceed every label this arena was built
  // from (delta snapshots probe new nodes' numbers against old arenas),
  // so no interval here can contain them.
  if (b >= static_cast<uint64_t>(LabelArena::kFilterWords) * 64) return false;
  if (((arena.filters[u * LabelArena::kFilterWords + (b >> 6)] >> (b & 63)) &
       1) == 0) {
    return false;
  }
  // Summary reject inline (the kernel re-checks it — one compare on an
  // already-hot line) so filter false positives above the extras' range
  // skip the indirect call entirely, matching the pre-dispatch cost.
  if (x > base[0].hi || x < base[0].lo) return false;
  if (s.extra_count <= 4) {
    // A cold single probe into a short run is latency-bound, not
    // throughput-bound: the branch-free scalar scan finishes before a
    // vector kernel's set1/broadcast setup would, and skips the
    // indirect call.  Batch probes still take the vector path.
    bool hit = false;
    for (uint32_t i = 1; i <= s.extra_count; ++i) {
      hit |= (base[i].lo <= x) & (x <= base[i].hi);
    }
    return hit;
  }
  return kernels.extras_contains(base, s.extra_count, x);
}

// Traced twin of ArenaContains for sampled queries: same answer (it
// mirrors the scalar control flow, and every kernel level is
// bit-identical to scalar by construction), plus the tag and probe count
// for the trace record.  Never called on the untraced hot path, so it
// favors clarity over pipelining.
inline bool ArenaContainsTraced(const LabelArena& arena, NodeId u,
                                ArenaLabel x, ProbeTrace* trace) {
  const LabelArena::NodeSlot& s = arena.slots[u];
  trace->tag = ProbeTag::kSlot;
  trace->extras_probes = 0;
  if (x < s.first.lo) return false;
  if (x <= s.first.hi) return true;
  if (s.extra_count == 0) return false;
  const uint64_t b = static_cast<uint64_t>(x) >> arena.filter_shift;
  if (b >= static_cast<uint64_t>(LabelArena::kFilterWords) * 64 ||
      ((arena.filters[u * LabelArena::kFilterWords + (b >> 6)] >> (b & 63)) &
       1) == 0) {
    trace->tag = ProbeTag::kFilterReject;
    return false;
  }
  trace->tag = ProbeTag::kExtrasSearch;
  const ArenaInterval* base = arena.extras.data() + s.extra_begin;
  if (x > base[0].hi || x < base[0].lo) {
    trace->extras_probes = 1;  // Summary reject: one compare.
    return false;
  }
  const uint32_t k = s.extra_count;
  if (k <= 4) {
    trace->extras_probes = k;
    bool hit = false;
    for (uint32_t i = 1; i <= k; ++i) {
      hit |= (base[i].lo <= x) & (x <= base[i].hi);
    }
    return hit;
  }
  // Eytzinger descent, counting levels touched.
  uint32_t i = 1, cand = 0, probes = 0;
  while (i <= k) {
    ++probes;
    if (base[i].hi >= x) {
      cand = i;
      i = 2 * i;
    } else {
      i = 2 * i + 1;
    }
  }
  trace->extras_probes = probes;
  return cand != 0 && base[cand].lo <= x;
}

}  // namespace trel

#endif  // TREL_CORE_ARENA_KERNELS_H_

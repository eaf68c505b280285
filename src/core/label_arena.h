#ifndef TREL_CORE_LABEL_ARENA_H_
#define TREL_CORE_LABEL_ARENA_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/interval.h"
#include "core/labeling.h"
#include "graph/digraph.h"

namespace trel {

// Caller-provided parallel executor: runs body(begin, end) over a
// partition of [0, n) and returns once every chunk completed.  The
// service's worker pool satisfies this shape; core code never spawns
// threads of its own.
using ParallelRunner =
    std::function<void(int64_t, const std::function<void(int64_t, int64_t)>&)>;

// Flat, cache-friendly storage for an interval labeling — the only label
// store of a CompressedClosure: its immutable base layer, and (over just
// the overlaid nodes) its WithDelta overlay layer.
//
// The per-node `std::vector<IntervalSet>` layout costs a point query two
// dependent pointer chases (IntervalSet header, then its heap buffer)
// plus a third for the target's postorder number, each a likely cache
// miss on large graphs.  Worse, on dense closures (hundreds of intervals
// per node) a negative membership probe binary-searches the node's
// interval list: ~log2(k) *dependent* misses, which measurements show is
// where nearly all query time goes.  The arena attacks both:
//
//   * `slots[v]` packs v's postorder number, its FIRST interval inline,
//     and the location of any remaining intervals, into one 32-byte slot
//     (two slots per cache line).  Most nodes carry a single interval
//     (the paper's central observation), so `slots[u]` + `slots[v]` is
//     the whole query.
//   * `extras` holds every interval after the first, for all nodes,
//     grouped by node id.  Each node's run is laid out as an implicit
//     BFS (Eytzinger) search tree keyed on `hi`, NOT in sorted order:
//     the probe path descends index 2i/2i+1 so the next two levels can
//     be software-prefetched while the current compare resolves, which
//     roughly halves the dependent-miss chain of the search.  Index 0 of
//     the run holds a summary interval {min lo, max hi} of the extras
//     for an O(1) out-of-range reject; the tree occupies indices
//     1..extra_count.  In-order traversal recovers ascending order
//     (ForEachExtra).
//   * `filters` gives every node one 64-byte (512-bit) coverage bitmap
//     over the postorder-label space (bucket = label >> filter_shift).
//     A bit is set iff some extra of the node intersects that bucket.
//     Interval labelings of large random DAGs are mostly *sparse* —
//     membership probes overwhelmingly miss — and an unset bit proves
//     absence with a single cache-line load instead of a tree descent.
//   * `dir_labels`/`dir_nodes` are the sorted postorder->node directory
//     split into parallel arrays, so range binary searches touch densely
//     packed labels and enumeration copies densely packed node ids.
//
// Everything here is plain data: built once, shared via shared_ptr by
// WithDelta overlay snapshots, never mutated afterwards.  Slot indices are
// node ids for a base arena; an overlay arena numbers its slots densely
// and keeps the global node ids in `dir_nodes`.
struct LabelArena {
  struct NodeSlot {
    Label postorder = 0;
    // The node's first (lowest-lo) interval; [1, 0] (empty) when the node
    // has no intervals at all, so Contains() rejects without a branch on
    // a separate count.
    Interval first{1, 0};
    // Remaining intervals live in the Eytzinger run extras[extra_begin,
    // extra_begin + extra_count] (index extra_begin is the summary slot;
    // zero run slots when extra_count == 0).  uint32 keeps the slot at 32
    // bytes; arenas past 4G intervals are rejected at build time.
    uint32_t extra_begin = 0;
    uint32_t extra_count = 0;
  };
  static_assert(sizeof(NodeSlot) == 32, "NodeSlot must stay cache-packed");

  // Words per node in `filters` (kFilterWords * 64 buckets per node).
  static constexpr int64_t kFilterWords = 8;

  std::vector<NodeSlot> slots;
  std::vector<Interval> extras;
  std::vector<uint64_t> filters;
  std::vector<Label> dir_labels;
  std::vector<NodeId> dir_nodes;
  // Label-space scaling for filter buckets: bucket(x) = uint64(x) >>
  // filter_shift, guaranteed < kFilterWords * 64 for every assigned label
  // (and, in an overlay arena, for every interval endpoint).
  int filter_shift = 0;

  NodeId num_nodes() const { return static_cast<NodeId>(slots.size()); }

  int64_t IntervalCount(NodeId v) const {
    const NodeSlot& s = slots[v];
    return (s.first.lo <= s.first.hi ? 1 : 0) +
           static_cast<int64_t>(s.extra_count);
  }

  // Issues a prefetch of u's filter line.  Callers that know the source
  // before resolving the target's label (Reaches, the batch kernel) hide
  // the filter's memory latency behind that load entirely.
  void PrefetchSource(NodeId u) const {
    __builtin_prefetch(filters.data() + u * kFilterWords);
  }

  // True iff some interval of `u` contains `x`.  The hot read path:
  // inline first-interval check, then filter reject, then the prefetched
  // Eytzinger descent — about two dependent misses end to end on large
  // arenas where the old sorted-run binary search took six or more.
  bool Contains(NodeId u, Label x) const {
    const NodeSlot& s = slots[u];
    if (x < s.first.lo) return false;  // Antichain: every lo is >= first.lo.
    if (x <= s.first.hi) return true;
    if (s.extra_count == 0) return false;
    const Interval* base = extras.data() + s.extra_begin;
    __builtin_prefetch(base);
    const uint64_t b = static_cast<uint64_t>(x) >> filter_shift;
    // Labels past the last bucket exceed every label this arena was built
    // from (delta snapshots probe new nodes' numbers against old arenas),
    // so no interval here can contain them.
    if (b >= static_cast<uint64_t>(kFilterWords) * 64) return false;
    if (((filters[u * kFilterWords + (b >> 6)] >> (b & 63)) & 1) == 0) {
      return false;
    }
    if (x > base[0].hi) return false;  // Above every extra's hi.
    // Descend for the smallest hi >= x; its lo decides (antichain: both
    // endpoint sequences ascend in sorted order).  `cand` tracks the last
    // left turn, i.e. the in-order successor when the walk falls off.
    const uint32_t k = s.extra_count;
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

  // In-order traversal of u's extras — ascending (lo, hi) — calling
  // `fn(const Interval&)`; stops early when fn returns false.  Returns
  // false iff stopped early.
  template <typename Fn>
  bool ForEachExtra(NodeId u, Fn&& fn) const {
    const NodeSlot& s = slots[u];
    if (s.extra_count == 0) return true;
    const Interval* base = extras.data() + s.extra_begin;
    const uint32_t k = s.extra_count;
    // Iterative in-order walk of the implicit tree.  The explicit stack
    // holds the ancestors whose left subtree is still in progress, so
    // memory use is bounded by the tree height (< 33 levels for any
    // uint32 count) instead of one call frame per interval — dense nodes
    // with tens of thousands of extras used to overflow the stack here.
    uint32_t stack[33];
    int top = 0;
    uint32_t i = 1;
    while (i <= k || top > 0) {
      while (i <= k) {
        stack[top++] = i;
        i = 2 * i;
      }
      const uint32_t node = stack[--top];
      if (!fn(base[node])) return false;
      i = 2 * node + 1;
    }
    return true;
  }

  // Directory binary searches: index of the first entry with label >= x /
  // > x.  The label array is contiguous 8-byte keys, so these walk the
  // minimum possible number of cache lines.
  int64_t DirLowerBound(Label x) const;
  int64_t DirUpperBound(Label x) const;

  // Bytes held by the flat arrays (capacity is trimmed at build time).
  int64_t ByteSize() const;
};

// Builds the arena for `labels`.
//
// `sorted_directory` may carry all (postorder, node) pairs already sorted
// by postorder number — DynamicClosure maintains exactly this map, and
// handing it over turns the O(n log n) export sort into an O(n) copy.
// Pass empty to have the builder sort.
//
// `runner`, when non-null, shards the slot/extras fill, the directory
// sort (sorted shards + merge cascade), and the final split across its
// workers; arenas below a size floor build serially regardless because
// fan-out overhead would dominate.
LabelArena BuildLabelArena(
    const NodeLabels& labels,
    std::vector<std::pair<Label, NodeId>> sorted_directory = {},
    const ParallelRunner* runner = nullptr);

// One node of a WithDelta overlay arena: its global id and postorder
// number, and where its label comes from — `intervals` when non-null,
// else slot `from_slot` of the previous overlay arena.
struct OverlayMember {
  Label postorder;
  NodeId node;
  const IntervalSet* intervals;
  NodeId from_slot;
};

// Builds the arena of a WithDelta overlay: slot i holds members[i], which
// must be sorted by postorder number, so the directory is the slot order
// and `dir_nodes[i]` is slot i's global id.  Carried members copy their
// slot, run and (at an unchanged bucket scale) filter line from `from`
// as is.  The coverage filters span every interval endpoint stored, not
// just the members' postorders: an overlaid node's intervals reach
// numbers owned by nodes outside the overlay, and Contains() answers
// false past the last bucket.
LabelArena BuildOverlayArena(const std::vector<OverlayMember>& members,
                             const LabelArena* from);

}  // namespace trel

#endif  // TREL_CORE_LABEL_ARENA_H_

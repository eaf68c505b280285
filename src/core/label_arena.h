#ifndef TREL_CORE_LABEL_ARENA_H_
#define TREL_CORE_LABEL_ARENA_H_

#include <cstdint>
#include <vector>

#include "core/interval.h"
#include "core/labeling.h"
#include "graph/digraph.h"

namespace trel {

// A label as the arena stores it.  Labels are 64-bit (`Label`) everywhere
// else; every postorder number and interval endpoint an arena holds lies
// in [0, kArenaLabelLimit), which the builders below check as they narrow
// (see interval.h for who keeps labels there).  Numbering starts at the
// gap and every renumber compacts it, so labels are stored absolute, with
// no per-arena base to subtract on every probe.
using ArenaLabel = uint32_t;

// An interval as the arena stores it: two 32-bit endpoints, 8 bytes.
struct ArenaInterval {
  ArenaLabel lo;
  ArenaLabel hi;

  Interval Widen() const { return Interval{lo, hi}; }
};

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
//     and the location of any remaining intervals — 20 bytes of fields —
//     into one 32-byte-aligned slot (two slots per cache line).  Most
//     nodes carry a single interval (the paper's central observation),
//     so `slots[u]` + `slots[v]` is the whole query.
//   * `extras` holds every interval after the first, for all nodes,
//     grouped by node id, at 8 bytes each.  Each node's run is laid out
//     as an implicit BFS (Eytzinger) search tree keyed on `hi`, NOT in
//     sorted order: the probe path descends index 2i/2i+1 so the next
//     two levels can be software-prefetched while the current compare
//     resolves, which roughly halves the dependent-miss chain of the
//     search.  Index 0 of the run holds a summary interval {min lo, max
//     hi} of the extras for an O(1) out-of-range reject; the tree
//     occupies indices 1..extra_count.  In-order traversal recovers
//     ascending order (ForEachExtra).
//   * `filters` gives every node one 64-byte (512-bit) coverage bitmap
//     over the postorder-label space (bucket = label >> filter_shift).
//     A bit is set iff some extra of the node intersects that bucket.
//     Interval labelings of large random DAGs are mostly *sparse* —
//     membership probes overwhelmingly miss — and an unset bit proves
//     absence with a single cache-line load instead of a tree descent.
//   * `dir_labels`/`dir_nodes` are the sorted postorder->node directory
//     split into parallel arrays, so range binary searches touch densely
//     packed 4-byte labels and enumeration copies densely packed node ids.
//
// Everything here is plain data: built once, shared via shared_ptr by
// WithDelta overlay snapshots, never mutated while any closure shares it
// (a later fold may refill a retired arena's memory).  Slot indices are
// node ids for a base arena; an overlay arena numbers its slots densely
// and keeps the global node ids in `dir_nodes`.
struct LabelArena {
  // 20 bytes of fields, aligned to 32 so that a cache line holds exactly
  // two slots and no slot straddles lines.  The 12 bytes after the fields
  // are a named member, so every constructed slot zeroes them (compiler
  // padding would keep whatever the heap held): equal arenas compare
  // equal byte for byte, and bulk copies carry zeros.
  struct alignas(32) NodeSlot {
    ArenaLabel postorder = 0;
    // The node's first (lowest-lo) interval; [1, 0] (empty) when the node
    // has no intervals at all, so a probe rejects without a branch on a
    // separate count.
    ArenaInterval first{1, 0};
    // Remaining intervals live in the Eytzinger run extras[extra_begin,
    // extra_begin + extra_count] (index extra_begin is the summary slot;
    // zero run slots when extra_count == 0).  Arenas past 4G intervals
    // are rejected at build time.
    uint32_t extra_begin = 0;
    uint32_t extra_count = 0;
    // Always zero; no reader touches it.
    uint32_t zero_pad[3] = {0, 0, 0};
  };
  static_assert(sizeof(NodeSlot) == 32, "NodeSlot must stay cache-packed");

  // Words per node in `filters` (kFilterWords * 64 buckets per node).
  static constexpr int64_t kFilterWords = 8;

  std::vector<NodeSlot> slots;
  std::vector<ArenaInterval> extras;
  std::vector<uint64_t> filters;
  std::vector<ArenaLabel> dir_labels;
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

  // In-order traversal of u's extras — ascending (lo, hi) — calling
  // `fn(const Interval&)` with each one widened to 64-bit labels; stops
  // early when fn returns false.  Returns false iff stopped early.
  template <typename Fn>
  bool ForEachExtra(NodeId u, Fn&& fn) const {
    const NodeSlot& s = slots[u];
    if (s.extra_count == 0) return true;
    const ArenaInterval* base = extras.data() + s.extra_begin;
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
      if (!fn(base[node].Widen())) return false;
      i = 2 * node + 1;
    }
    return true;
  }

  // Directory binary searches: index of the first entry with label >= x /
  // > x.  The label array is contiguous 4-byte keys, so these walk the
  // minimum possible number of cache lines.  `x` may be any Label: the
  // compares widen the stored labels, never narrow x.
  int64_t DirLowerBound(Label x) const;
  int64_t DirUpperBound(Label x) const;

  // Bytes held by the flat arrays — slots (padding included), extras,
  // filters and both directory arrays — each counted at its size, not its
  // capacity: a fold refills a recycled arena whose arrays may keep spare
  // capacity (FoldOverlayArena), and equal arenas report equal sizes.
  int64_t ByteSize() const;
  // The same five arrays counted at their capacity: the memory the arena
  // holds, which ByteSize() undercounts for a recycled one.
  int64_t CapacityBytes() const;
};

// Builds the arena for `labels`, narrowing every label to 32 bits; aborts
// if a postorder number or interval endpoint lies outside
// [0, kArenaLabelLimit) (no labeling the library builds or loads does).
// Serial passes: run offsets, then slots, extras runs and filter lines in
// node order, then the directory, sorted by postorder number here.  The
// build is memory-bound, so it takes no worker pool and no pre-sorted
// directory (DESIGN.md §4d has the measurements).
LabelArena BuildLabelArena(const NodeLabels& labels);

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
// numbers owned by nodes outside the overlay, and a probe answers false
// past the last bucket.  Narrows and range-checks like BuildLabelArena.
LabelArena BuildOverlayArena(const std::vector<OverlayMember>& members,
                             const LabelArena* from);

// Folds a WithDelta overlay into `into`, which becomes a new base arena:
// byte for byte the arena BuildLabelArena builds over the labeling the
// two layers answer with, at the cost of the overlay plus bulk copies of
// the base.  `slot_of[v]` is v's slot in `overlay`, or negative when v's
// label lives in `base`; it spans every node, and every node past
// base.num_nodes() is overlaid.  `stale_labels` are the base's postorder
// numbers the overlay supersedes, sorted.  `base` must have
// BuildLabelArena's layout (runs in node order), as every arena
// BuildLabelArena or this fold makes has.
//
// `into` may hold anything, and is typically a retired arena whose memory
// the caller recycles (QueryService's spare, DESIGN.md §4c): every array
// is cleared and refilled within its capacity, so the fold writes pages
// that are already mapped.  An array too short for this fold is regrown
// with a fixed headroom (1/16 of its new size), so a slowly growing graph
// keeps fitting the same memory over many folds instead of missing it on
// every one.  `into` must not be `base` or `overlay`.
//
// Each run of consecutive base nodes that are not overlaid is one copy of
// slots, extras and filter lines, with extra_begin re-based.  Base filter
// lines are copied while the bucket scale is unchanged and re-marked from
// their runs when it moved; overlay nodes' lines are always re-marked,
// since an overlay arena scales its buckets to its largest interval
// endpoint rather than its largest postorder number.
void FoldOverlayArena(const LabelArena& base, const LabelArena& overlay,
                      const std::vector<int32_t>& slot_of,
                      const std::vector<Label>& stale_labels,
                      LabelArena& into);

}  // namespace trel

#endif  // TREL_CORE_LABEL_ARENA_H_

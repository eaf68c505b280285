#ifndef TREL_CORE_COMPRESSED_CLOSURE_H_
#define TREL_CORE_COMPRESSED_CLOSURE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/arena_kernels.h"
#include "core/interval.h"
#include "core/label_arena.h"
#include "core/labeling.h"
#include "core/tree_cover.h"
#include "graph/digraph.h"

namespace trel {

// Build-time options for the compressed closure.
struct ClosureOptions {
  TreeCoverStrategy strategy = TreeCoverStrategy::kOptimal;
  // Random seed, used only by TreeCoverStrategy::kRandom.
  uint64_t seed = 0;
  // Sibling traversal order; only affects storage when
  // labeling.merge_adjacent is on (see ChildOrder).
  ChildOrder child_order = ChildOrder::kInsertion;
  LabelingOptions labeling;
};

// Immutable compressed transitive closure of a DAG — the paper's primary
// contribution.  Reachability queries are O(log k) where k is the number
// of intervals at the source node (k is 1 for most nodes); enumeration
// queries cost output-size log-factors.  For a mutable index supporting
// the Section 4 incremental updates, see DynamicClosure; for cyclic
// inputs, see TransitiveClosureIndex.
//
// Every interval label lives in a flat LabelArena (see label_arena.h):
// per-node slots with the first interval inline, one contiguous array for
// the remaining intervals, per-node coverage filters, and the sorted
// postorder directory.  The closure keeps no other copy of its labels;
// IntervalsOf() reads a node's set back out of the arena.
//
// Storage comes in two layers, both arenas.  The *base* arena is held
// through shared_ptr and never mutated, so closures built from one another
// via WithDelta() share it.  An optional *overlay* arena holds the labels
// of the nodes that differ from the base; it is absent for closures built
// by Build()/FromParts().  Queries read an overlaid node's label from the
// overlay, so an overlay closure answers exactly like a from-scratch
// export of the same labeling — only cheaper to construct
// (O(|overlay| log |overlay| + n) instead of O(n log n)).
class CompressedClosure {
 public:
  // Empty closure over zero nodes; placeholder state (e.g. a query
  // service before its first Load).
  CompressedClosure();

  // Compresses the closure of `graph`.  Fails with FailedPrecondition if
  // the graph is cyclic, InvalidArgument on bad options, and
  // ResourceExhausted when the numbering passes the 32-bit labels.
  static StatusOr<CompressedClosure> Build(const Digraph& graph,
                                           const ClosureOptions& options = {});

  // Wraps an already-computed labeling without re-running tree-cover
  // selection or interval propagation.  This is the cheap snapshot-export
  // path: the arena is built by READING `labels`, which the closure does
  // not retain, so a query service can publish an immutable snapshot in
  // O(n log n) (the directory's postorder sort) without copying the
  // per-node interval sets.  `labels` must come from a sound labeling.
  // The tree cover that chose the numbering is not needed to answer
  // queries (§3: u reaches v iff v's postorder number lies in one of u's
  // intervals), so the closure keeps none.
  static CompressedClosure FromParts(const NodeLabels& labels);

  // Copy-on-write overlay constructor: a closure that answers exactly
  // like a full export of the labeling `delta` was taken from, built in
  // O(|overlay| log |overlay| + n) by sharing the base arena with `base`.
  // `delta` must come from the same index lineage as `base` (same node
  // ids, monotone node count) and list every node that changed since
  // `base` was exported — DynamicClosure::ExportDelta() guarantees both.
  // Chaining is flattened: building from an overlay closure merges the
  // accumulated overlay, so lookups never walk a chain; publishers bound
  // the overlay's growth by forcing a periodic full export (see
  // QueryService::kMaxDeltaPublishes).
  static CompressedClosure WithDelta(const CompressedClosure& base,
                                     const ClosureDelta& delta);

  // A base-only closure that answers exactly like `layered`, typically a
  // WithDelta closure: its overlay is folded into a new base arena
  // (FoldOverlayArena), byte for byte the arena FromParts builds over the
  // same labeling, at the cost of the overlay plus bulk copies of the
  // base — serially, with no runner.  An overlay-free `layered` shares
  // its arena as is.
  static CompressedClosure Fold(const CompressedClosure& layered);

  // True iff there is a directed path from `u` to `v` (every node reaches
  // itself).  Two flat array loads in the common case: u's slot (which
  // inlines its first interval) and v's slot (for the postorder number).
  bool Reaches(NodeId u, NodeId v) const {
    TREL_CHECK(IsValidNode(u));
    TREL_CHECK(IsValidNode(v));
    if (u == v) return true;
    if (overlay_ == nullptr) {
      // Warm u's filter line while v's slot load resolves.
      arena_->PrefetchSource(u);
      return ArenaContains(*arena_, *kernels_, u, arena_->slots[v].postorder);
    }
    return ReachesWithOverlay(u, v);
  }

  // Batch point lookups over one consistent closure, answered by the
  // dispatched software-pipelined kernel (see arena_kernels.h): slot and
  // filter prefetches run several queries ahead of the resolve point,
  // runs of equal sources share one 512-bit group filter test, and
  // surviving descents interleave so their misses overlap.  Unlike
  // Reaches, out-of-range ids answer 0 rather than aborting (snapshot
  // semantics — the service's batch path feeds ids readers took from
  // other epochs).  `out` must have room for `n`; `stats`, when non-null,
  // accumulates kernel tallies for service metrics.
  void BatchReaches(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                    uint8_t* out, BatchKernelStats* stats) const;
  void BatchReaches(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                    uint8_t* out) const {
    BatchReaches(pairs, n, out, nullptr);
  }
  std::vector<uint8_t> BatchReaches(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
    std::vector<uint8_t> out(pairs.size());
    BatchReaches(pairs.data(), static_cast<int64_t>(pairs.size()), out.data());
    return out;
  }

  // Traced twins for the obs sampler: identical answers, plus how each
  // probe was decided.  Both use snapshot semantics (out-of-range ids
  // answer 0, tag kSlot) so the service can call them without
  // pre-validating sampled queries.  Never on the untraced hot path.
  // Probes whose source label lives in the overlay are tagged kOverlay.
  bool ReachesTraced(NodeId u, NodeId v, ProbeTrace* trace) const;
  // `tags[i]` receives the ProbeTag that decided query i.  Overlay
  // snapshots take the per-query traced path (and, like BatchReaches,
  // leave `stats` untouched); overlay-free batches go through the
  // dispatched tagged kernel.
  void BatchReachesTraced(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                          uint8_t* out, BatchKernelStats* stats,
                          uint8_t* tags) const;

  // All nodes reachable from `u`, excluding `u` itself, in ascending
  // postorder-number order.  Walks the flat directory: one bulk copy per
  // interval on full exports.
  std::vector<NodeId> Successors(NodeId u) const;

  // All nodes that reach `v`, excluding `v` itself.  One linear sweep of
  // the arena's slot array (sequential, prefetch-friendly); the structure
  // is optimized for forward queries, matching the paper's successor-list
  // framing.
  std::vector<NodeId> Predecessors(NodeId v) const;

  // Number of successors of `u` (excluding `u`), without materializing
  // them.
  int64_t CountSuccessors(NodeId u) const;

  NodeId NumNodes() const { return num_nodes_; }
  bool IsValidNode(NodeId v) const { return v >= 0 && v < NumNodes(); }

  // The paper's storage measures.
  int64_t TotalIntervals() const { return total_intervals_; }
  int64_t StorageUnits() const { return 2 * total_intervals_; }

  // Number of nodes whose labels live in the overlay rather than the
  // shared base (0 for full exports).  Grows monotonically along a
  // WithDelta chain until the next full export.
  int64_t OverlayNodeCount() const {
    return overlay_ == nullptr ? 0 : overlay_->arena.num_nodes();
  }
  bool IsOverlay() const { return overlay_ != nullptr; }

  // True iff `v`'s label lives in the overlay (always false on full
  // exports).  One flat load; used by the snapshot layer to decide
  // whether a family index built at the base epoch may answer for `v`.
  bool IsOverlayMember(NodeId v) const {
    TREL_CHECK(IsValidNode(v));
    return overlay_ != nullptr && overlay_->slot_of[v] != kNotOverlaid;
  }

  // Introspection (used by tests, benches, and the dynamic index).
  // `arena()` exposes the shared *base* layer: exact for full exports,
  // stale for overlaid nodes of a WithDelta closure (use
  // PostorderOf/IntervalsOf for overlay-aware per-node access).
  const LabelArena& arena() const { return *arena_; }
  // Bytes pinned by the base arena: slots, extras, coverage filters and
  // directory, each array at its element size (LabelArena::ByteSize).
  int64_t ArenaByteSize() const { return arena_->ByteSize(); }
  Label PostorderOf(NodeId v) const {
    TREL_CHECK(IsValidNode(v));
    return ArenaPostorderOf(v);
  }
  // `v`'s interval set, read back out of whichever arena holds it.
  IntervalSet IntervalsOf(NodeId v) const;
  int64_t IntervalCountOf(NodeId v) const {
    TREL_CHECK(IsValidNode(v));
    const LabelRef ref = LabelOf(v);
    return ref.arena->IntervalCount(ref.slot);
  }

 private:
  static constexpr int32_t kNotOverlaid = -1;

  // The overlay layer of a WithDelta closure: an arena over the overlaid
  // nodes only.  Its slots are in ascending postorder order, so
  // `arena.dir_nodes[s]` is the (global) node id of slot s.
  struct Overlay {
    LabelArena arena;
    // slot_of[v] = v's slot in `arena`, or kNotOverlaid.  Sized NumNodes().
    std::vector<int32_t> slot_of;
    // Base postorder numbers superseded by the overlay (sorted); base
    // directory entries carrying these numbers are skipped.
    std::vector<Label> stale_labels;
  };

  // Where a node's label lives: a slot of the base or the overlay arena.
  struct LabelRef {
    const LabelArena* arena;
    NodeId slot;
  };

  explicit CompressedClosure(const NodeLabels& labels);

  LabelRef LabelOf(NodeId v) const {
    if (overlay_ != nullptr) {
      const int32_t slot = overlay_->slot_of[v];
      if (slot != kNotOverlaid) return {&overlay_->arena, slot};
    }
    return {arena_.get(), v};
  }

  // `v`'s postorder number as its arena stores it, for probes.
  ArenaLabel ArenaPostorderOf(NodeId v) const {
    const LabelRef ref = LabelOf(v);
    return ref.arena->slots[ref.slot].postorder;
  }

  // Overlay-aware slow path behind Reaches' arena fast path.
  bool ReachesWithOverlay(NodeId u, NodeId v) const;

  // Nodes listed in the closed interval [lo, hi] of postorder numbers,
  // except the node numbered `skip` (pass a number outside [lo, hi] to
  // keep everything).  Full exports bulk-copy directory runs; overlays
  // merge the base directory (minus stale entries) with the overlay
  // directory, ascending.
  void AppendNodesInRange(Label lo, Label hi, Label skip,
                          std::vector<NodeId>& out) const;
  // Number of assigned postorder numbers in [lo, hi]; pure binary search.
  int64_t CountNodesInRange(Label lo, Label hi) const;

  // --- Shared base layer (immutable once built, never overlaid) ---------
  std::shared_ptr<const LabelArena> arena_;
  // Process-wide dispatched kernel table (never null); resolved once at
  // first use, so every closure in the process probes with the same ISA
  // level.  See simd_dispatch.h.
  const ArenaKernels* kernels_ = &ActiveKernels();

  // --- Overlay layer (null for full exports) ----------------------------
  std::shared_ptr<const Overlay> overlay_;

  NodeId num_nodes_ = 0;
  int64_t total_intervals_ = 0;
};

}  // namespace trel

#endif  // TREL_CORE_COMPRESSED_CLOSURE_H_

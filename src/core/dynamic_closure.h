#ifndef TREL_CORE_DYNAMIC_CLOSURE_H_
#define TREL_CORE_DYNAMIC_CLOSURE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "common/statusor.h"
#include "core/compressed_closure.h"
#include "core/interval.h"
#include "core/labeling.h"
#include "graph/digraph.h"

namespace trel {

// Mutable compressed transitive closure implementing the paper's Section 4
// incremental update algorithms.  The key enabler is gap numbering:
// postorder numbers are spaced `gap` apart so new nodes slot into holes
// without disturbing existing labels.
//
// Update cost model (n = nodes, k = intervals):
//   AddLeafUnder      O(log n)    (constant label work; no propagation —
//                                  ancestors' intervals already cover the
//                                  hole the new number is drawn from)
//   AddArc            O(affected predecessors * interval work); stops as
//                     soon as subsumption absorbs the new intervals
//   RefineAbove       O(parents) when all parents already reach the child
//                     (the paper's constant-time hierarchy refinement)
//   RemoveArc         renumbers the detached subtree (tree arc) and
//                     re-propagates interval sets; keeps the tree cover
//   Renumber          O(n + propagation); invoked automatically when a
//                     gap is exhausted
//   Reoptimize        full rebuild with a fresh optimal tree cover (the
//                     paper: "it may be prudent to develop a new
//                     tree-cover after sufficient update activity")
//
// Incremental updates do not preserve the optimality of the tree cover
// (paper, end of Section 4); call Reoptimize() to restore it.
class DynamicClosure {
 public:
  struct Stats {
    int64_t renumbers = 0;      // automatic renumberings (CompactNumbering)
    int64_t reoptimizes = 0;    // full rebuilds (explicit or forced)
    int64_t propagation_node_visits = 0;  // nodes touched by AddArc floods
  };

  // Sensible defaults for dynamic use: room for 63 in-place leaf splits
  // per hole and 15 refinements per node between renumberings.
  static ClosureOptions DefaultOptions();

  // Empty closure; nodes are introduced via AddLeafUnder.
  explicit DynamicClosure(const ClosureOptions& options = DefaultOptions());

  // Wraps an existing DAG.  Fails if `graph` is cyclic.
  static StatusOr<DynamicClosure> Build(
      const Digraph& graph, const ClosureOptions& options = DefaultOptions());

  // Like Build, but labels via the chain-fast path (chain_propagator.h):
  // greedy path cover + blocked frontier propagation instead of Alg1's
  // antichain-optimal cover + per-arc antichain merges.  Much cheaper on
  // chain-structured graphs; label quality (interval count) can be worse.
  // Fails like BuildChainLabeling does (incl. ResourceExhausted on the
  // entry cap) — callers fall back to Build.  options.strategy is ignored
  // (the cover IS the path cover).
  static StatusOr<DynamicClosure> BuildWithChains(
      const Digraph& graph, const ClosureOptions& options = DefaultOptions());

  // True iff the current labeling came from a chain-fast build (and no
  // Alg1 rebuild has replaced it since).  Publishers use this as the
  // provenance tag for exported snapshots.  Conservatively false after
  // Load(): the snapshot format does not record cover provenance.
  bool UsesChainCover() const { return cover_is_chain_; }

  // --- Updates (paper Section 4) -----------------------------------------

  // "Addition of a tree arc": creates a new node with tree parent
  // `parent`, or a new root if parent == kNoNode.  Renumbers
  // automatically when the hole below `parent` is full, or when a new
  // root's number would pass the arena's 32-bit labels.  Fails with
  // InvalidArgument on an invalid parent, and with ResourceExhausted,
  // before changing anything, when even a compact numbering of one more
  // node would pass the 32-bit labels (see CompactNumberingFits).
  StatusOr<NodeId> AddLeafUnder(NodeId parent);

  // "Addition of a non-tree arc" between existing nodes.  Propagates the
  // target's intervals to the source and its predecessors, pruned by
  // subsumption.  Fails if the arc would create a cycle, is a duplicate,
  // or has invalid endpoints.
  Status AddArc(NodeId from, NodeId to);

  // Section 4.1 hierarchy refinement: inserts a new node z with arcs
  // (p, z) for each p in `parents` and (z, child), drawing z's postorder
  // number from child's reserved slack so that predecessors of child need
  // no interval updates.  Soundness requires `parents` to include every
  // current immediate predecessor of `child` (otherwise some node would
  // claim to reach z without a path); fails with FailedPrecondition if
  // violated, if child's reserve pool is exhausted, or on cycles, and
  // with ResourceExhausted like AddLeafUnder.
  // Runs in O(|parents|) when every parent already reaches child.
  StatusOr<NodeId> RefineAbove(NodeId child,
                               const std::vector<NodeId>& parents);

  // Section 4.2 deletions.  Tree-arc removal detaches the subtree (it is
  // renumbered past the current maximum and re-rooted, per the paper, or
  // the whole numbering is compacted when that would pass the arena's
  // 32-bit labels); non-tree removal recomputes non-tree intervals in
  // reverse topological order.  Falls back to Reoptimize() when refined
  // nodes are present.
  Status RemoveArc(NodeId from, NodeId to);

  // --- Persistence ---------------------------------------------------------

  // Serializes the complete index state (graph, tree cover, labels,
  // reserve pools, stats) to a binary stream, so a process can restart
  // without rebuilding.  Format is versioned and host-endian-independent.
  Status Save(std::ostream& out) const;
  static StatusOr<DynamicClosure> Load(std::istream& in);

  // Rebuilds numbering and intervals for the *current* tree cover,
  // restoring full gaps and reserve pools.
  void Renumber();

  // Full rebuild: fresh optimal tree cover, numbering, and intervals.
  void Reoptimize();

  // --- Queries ------------------------------------------------------------

  bool Reaches(NodeId u, NodeId v) const {
    TREL_CHECK(graph_.IsValidNode(u));
    TREL_CHECK(graph_.IsValidNode(v));
    if (u == v) return true;
    return labels_.intervals[u].Contains(labels_.postorder[v]);
  }

  // Reachable nodes excluding `u`, ascending postorder order.
  std::vector<NodeId> Successors(NodeId u) const;

  // Number of nodes reachable from `u` (excluding `u`), without
  // materializing them.
  int64_t CountSuccessors(NodeId u) const;

  // Nodes that reach `v`, excluding `v` (upward BFS over the arcs; the
  // structure is optimized for forward queries — see BidirectionalClosure
  // for an indexed alternative on static graphs).
  std::vector<NodeId> Predecessors(NodeId v) const;

  // Builds an immutable CompressedClosure that answers exactly like this
  // index does right now.  Costs one O(n + intervals) arena build that
  // reads the labels in place — no per-node copy, no postorder sort (the
  // index's by-postorder map is handed over pre-sorted), no tree-cover or
  // propagation work, and no copy of the cover (the closure answers from
  // labels alone).  A non-null `runner` shards the arena build across
  // the caller's worker pool.  Does not touch the dirty set; a publisher
  // that treats this export as its new delta base must call MarkClean()
  // alongside it.  A non-null `arena_micros` receives the arena-build
  // portion of the export time (obs publish spans).  A publisher holding
  // the previous export skips this build on most full publishes: it
  // folds ExportDelta() into that base instead (CompressedClosure::Fold,
  // DESIGN.md §4c), which yields the same arena byte for byte.
  CompressedClosure ExportClosure(const ParallelRunner* runner = nullptr,
                                  int64_t* arena_micros = nullptr) const;

  // --- Delta export (dirty tracking) --------------------------------------
  //
  // The index tracks which nodes' exported state (postorder number, tree
  // interval, or interval set) changed since the dirty set was last
  // cleared.  The set is a sound overapproximation: a node whose labels
  // changed is always in it; maintenance that rewrites labels wholesale
  // (Renumber, Reoptimize) marks every node.  A deletion marks only the
  // nodes it renumbers and those whose interval set it changes.

  // Number of nodes currently dirty.  Publishers compare this against
  // NumNodes() to decide between ExportDelta and a full ExportClosure.
  int64_t DirtyCount() const {
    return static_cast<int64_t>(dirty_list_.size());
  }

  // Drains the dirty set into per-node label entries, sorted by node id,
  // suitable for CompressedClosure::WithDelta against any snapshot
  // exported at the time the dirty set was last cleared.  O(d log d + d·k)
  // for d dirty nodes with k intervals each.  Clears the dirty set: the
  // caller owns making the resulting snapshot the new baseline.
  ClosureDelta ExportDelta();

  // Declares the current state fully exported (empties the dirty set).
  // Call after a full ExportClosure() that becomes the new delta base.
  void MarkClean();

  // True iff (from, to) is an arc of the current tree cover.
  bool IsTreeArc(NodeId from, NodeId to) const {
    TREL_CHECK(graph_.IsValidNode(from));
    TREL_CHECK(graph_.IsValidNode(to));
    return tree_parent_[to] == from;
  }

  NodeId NumNodes() const { return graph_.NumNodes(); }
  const Digraph& graph() const { return graph_; }
  const NodeLabels& labels() const { return labels_; }
  int64_t TotalIntervals() const { return labels_.TotalIntervals(); }
  int64_t StorageUnits() const { return labels_.StorageUnits(); }
  NodeId TreeParent(NodeId v) const {
    TREL_CHECK(graph_.IsValidNode(v));
    return tree_parent_[v];
  }
  // Unused refinement slots above v's postorder number: the pad v's tree
  // interval carries when propagated to predecessors.
  Label ReservePool(NodeId v) const {
    TREL_CHECK(graph_.IsValidNode(v));
    return reserve_remaining_[v];
  }
  const Stats& stats() const { return stats_; }

 private:
  // Creates label slots for a freshly added graph node and marks it dirty.
  void GrowNodeState();
  // Dirty-set maintenance (see ExportDelta).
  void MarkDirty(NodeId v);
  void MarkAllDirty();
  // Largest assigned postorder number (0 when empty).
  Label MaxAssigned() const;
  // Highest label that numbering `count` more nodes past MaxAssigned(),
  // `gap` apart and each with a full reserve pool, would create.
  Label MaxLabelPastMax(int64_t count) const;
  // ResourceExhausted iff a compact numbering of NumNodes() + 1 nodes
  // would pass the arena's 32-bit labels.
  Status CheckRoomForOneMore() const;
  // Renumber(), or Reoptimize() when refined nodes exist: both compact
  // the numbering to gap × rank.  Counted in stats().renumbers.
  void CompactNumbering();
  // Assigned number strictly below `x`, or 0.
  Label PreviousAssigned(Label x) const;
  // Flood `delta` into `start` and transitively into predecessors,
  // stopping where subsumption makes it a no-op.
  void PropagateIntoPredecessors(NodeId start,
                                 const std::vector<Interval>& delta);
  // Rebuild intervals for the whole graph with current numbering, and
  // mark dirty the nodes whose interval set changed.
  void RepropagateAll();
  // Shared post-rebuild bookkeeping.
  void AdoptCover(const TreeCover& cover, NodeLabels labels);

  ClosureOptions options_;
  Digraph graph_;
  NodeLabels labels_;
  std::vector<NodeId> tree_parent_;
  std::vector<std::vector<NodeId>> tree_children_;
  // Unused refinement slots above each node's postorder number; consumed
  // top-down so propagated pads shrink monotonically (soundness).
  std::vector<Label> reserve_remaining_;
  std::vector<bool> is_refined_;
  int64_t num_refined_ = 0;
  // Assigned postorder number -> node.
  std::map<Label, NodeId> by_postorder_;
  // Dirty set for ExportDelta: dirty_flag_[v] iff v is in dirty_list_
  // (the flag dedups, the list keeps draining O(dirty) not O(n)).
  std::vector<bool> dirty_flag_;
  std::vector<NodeId> dirty_list_;
  // Labeling provenance: set by BuildWithChains, cleared by any Alg1
  // rebuild (Reoptimize constructs a fresh index and move-assigns it over
  // *this, carrying its default false).  Renumber keeps the cover — and
  // therefore the flag.
  bool cover_is_chain_ = false;
  Stats stats_;
};

}  // namespace trel

#endif  // TREL_CORE_DYNAMIC_CLOSURE_H_

#ifndef TREL_CORE_LABELING_H_
#define TREL_CORE_LABELING_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "core/interval.h"
#include "core/tree_cover.h"
#include "graph/digraph.h"

namespace trel {

// Knobs for the labeling pass.
struct LabelingOptions {
  // Spacing between consecutive postorder numbers (Section 4: "one can
  // leave gaps between numbers and the compression scheme would still work
  // correctly").  gap=1 reproduces the paper's static scheme exactly;
  // larger gaps leave room for incremental insertion.
  Label gap = 1;
  // Reserved slack appended to a node's tree interval *when it is
  // propagated to predecessors* (Section 4.1: h's interval "could have
  // been made [11,25], with the understanding that nodes numbered 21
  // through 25 are not reachable from h").  A node's own stored tree
  // interval is never padded.  The slack numbers are handed out by
  // DynamicClosure::RefineAbove for constant-time hierarchy refinement.
  // Must be in [0, gap).
  Label reserve = 0;
  // Apply the Section 3.2 adjacent-interval merging improvement after
  // propagation.  Order-dependent and incompatible with incremental
  // updates; off by default.
  bool merge_adjacent = false;
};

// The complete interval labeling of a DAG under a given tree cover.
struct NodeLabels {
  // postorder[v] = v's postorder number in the tree cover (times gap).
  std::vector<Label> postorder;
  // tree_interval[v] = [anchor_v + 1, postorder_v], where anchor_v is the
  // largest number assigned before v's subtree was entered.  With gap=1
  // this is exactly the paper's [lowest postorder among descendants, own
  // postorder]; with gaps the unassigned numbers below are reserved for
  // future descendants of v.
  std::vector<Interval> tree_interval;
  // intervals[v] = v's full interval set (tree interval + surviving
  // non-tree intervals) after reverse-topological propagation.
  std::vector<IntervalSet> intervals;
  // Copies of the options the labels were built with; dynamic updates must
  // reuse them.
  Label gap = 1;
  Label reserve = 0;

  // Total interval count over all nodes — the paper's optimization
  // objective (each interval is one unit of storage weight).
  int64_t TotalIntervals() const;
  // The paper's storage measure for the compressed closure: two endpoints
  // per interval.
  int64_t StorageUnits() const { return 2 * TotalIntervals(); }
};

// True iff a compact numbering of `num_nodes` nodes `gap` apart keeps
// every label below kArenaLabelLimit: the highest number, num_nodes ×
// gap, padded by `reserve` when propagated, must stay under 2^32.
// Expects gap >= 1 and reserve in [0, gap).
bool CompactNumberingFits(int64_t num_nodes, Label gap, Label reserve);

// Assigns postorder numbers and tree intervals, then propagates interval
// sets in reverse topological order over all arcs, discarding subsumed
// intervals (Section 3.2).  Fails if `graph` is cyclic or options are
// inconsistent, and with ResourceExhausted when the numbering would not
// fit the arena's 32-bit labels (see CompactNumberingFits), the code
// DynamicClosure's writers return at the same limit.
StatusOr<NodeLabels> BuildLabels(const Digraph& graph, const TreeCover& cover,
                                 const LabelingOptions& options = {});

// One node's complete label state, as shipped in a ClosureDelta.
struct NodeLabelDelta {
  NodeId node = kNoNode;
  Label postorder = 0;
  IntervalSet intervals;
};

// The label entries that changed since the last export, plus the node
// universe they belong to.  Produced by DynamicClosure::ExportDelta() and
// consumed by CompressedClosure::WithDelta(): every node whose postorder
// number or interval set differs from the base snapshot — including every
// node created since — must have an entry, and entries are sorted by node
// id.  Nodes absent from `entries` are guaranteed unchanged, which is what
// lets the overlay snapshot share their storage with the base.
struct ClosureDelta {
  // Total node count at export time (>= the base snapshot's count; node
  // ids are never recycled within one index lineage).
  NodeId num_nodes = 0;
  std::vector<NodeLabelDelta> entries;
};

// Propagation only: recomputes intervals[] from tree_interval[] and the
// arcs, reusing the existing postorder numbering.  `reverse_topo` must be
// a reverse topological order of `graph`.  Each node's set is the maximal
// antichain of its own tree interval and its out-neighbours' sets, built
// by one linear merge per arc; it equals what inserting every inherited
// interval one at a time would leave, since the antichain does not depend
// on insertion order.  An out-neighbour's tree interval is padded on the
// way in by pad_per_node[q] if provided, else by labels.reserve
// uniformly.  Used by the dynamic index after structural deletions,
// where partially consumed reserve pools require per-node pads.
void PropagateIntervals(const Digraph& graph,
                        const std::vector<NodeId>& reverse_topo,
                        NodeLabels& labels,
                        const std::vector<Label>* pad_per_node = nullptr);

}  // namespace trel

#endif  // TREL_CORE_LABELING_H_

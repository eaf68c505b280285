#ifndef TREL_BASELINES_TREE_COVER_INDEX_H_
#define TREL_BASELINES_TREE_COVER_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/arena_kernels.h"
#include "graph/digraph.h"

namespace trel {

// GRAIL-style exact reachability index: k independent random spanning
// forests of the DAG, each labeled with the same postorder-interval trick
// the paper uses for its tree covers (Section 3.1), plus a label-pruned
// DFS for the queries the labels cannot refute.
//
// Each tree t assigns node v a postorder rank r_t(v) and the interval
//   L_t(v) = [min(r_t(v), min over out-neighbors' lo), r_t(v)],
// which contains r_t(w) for every w reachable from v (the min runs over
// ALL out-arcs, not just tree arcs, so non-tree reachability is folded
// in).  Hence r_t(v) not in L_t(u) for ANY t proves u cannot reach v.
// Admitted queries fall back to a DFS over the stored adjacency that
// prunes every branch whose labels reject the target — exact, and on
// sparse graphs the labels kill almost all of the fan-out.
//
// Per-node cost is 8 bytes per tree plus the 4-byte-per-arc adjacency
// copy, independent of the closure's density — which is the whole point:
// on the paper's Fig 3.6 bipartite shapes the interval labeling stores
// Theta(n^2) intervals while this index stays linear.  It is a
// comparator, not a serving index: on those shapes the pruned DFS
// answers 9-55x slower than the interval arena (DESIGN.md §6b).
//
// Immutable after Build; concurrent Reaches calls are safe (the DFS
// scratch is thread-local).
class TreeCoverIndex {
 public:
  // Compact per-tree label: ranks fit int32 (they index [0, n)), so a
  // label takes 8 bytes, like an arena interval, not a 16-byte Interval.
  struct TreeLabel {
    int32_t lo = 0;
    int32_t hi = -1;
  };

  static constexpr int kDefaultNumTrees = 2;

  // Builds the index over `graph`, which must be a DAG (callers run this
  // after a successful interval export, which proves acyclicity).
  // `seed` drives the random root and out-neighbor orders that make the
  // k labelings independent.
  static TreeCoverIndex Build(const Digraph& graph,
                              int num_trees = kDefaultNumTrees,
                              uint64_t seed = 1);

  TreeCoverIndex() = default;

  NodeId NumNodes() const { return num_nodes_; }
  int num_trees() const { return num_trees_; }

  // Exact reachability; both ids must be valid.
  bool Reaches(NodeId u, NodeId v) const {
    ProbeTrace trace;
    return ReachesTraced(u, v, &trace);
  }

  // Tagged twin: kSlot for trivial answers, kFilterReject when a tree
  // label refutes the query (extras_probes = trees consulted), kFallback
  // when the pruned DFS ran (extras_probes = nodes expanded).
  bool ReachesTraced(NodeId u, NodeId v, ProbeTrace* trace) const;

  // Index footprint: tree labels plus the pruned-DFS adjacency copy.
  int64_t LabelBytes() const {
    return static_cast<int64_t>(labels_.size() * sizeof(TreeLabel)) +
           static_cast<int64_t>(adj_offset_.size() * sizeof(int64_t)) +
           static_cast<int64_t>(adj_.size() * sizeof(NodeId));
  }

  const TreeLabel& LabelOf(NodeId v, int tree) const {
    return labels_[static_cast<size_t>(v) * num_trees_ + tree];
  }

 private:
  NodeId num_nodes_ = 0;
  int num_trees_ = 0;
  // Node-major: labels_[v * num_trees_ + t].  hi doubles as r_t(v).
  std::vector<TreeLabel> labels_;
  // Frozen CSR out-adjacency for the fallback DFS (the source Digraph is
  // not retained by snapshots).
  std::vector<int64_t> adj_offset_;
  std::vector<NodeId> adj_;

  bool LabelsAdmit(NodeId u, NodeId v) const {
    for (int t = 0; t < num_trees_; ++t) {
      const TreeLabel& lu = LabelOf(u, t);
      const int32_t rv = LabelOf(v, t).hi;
      if (rv < lu.lo || rv > lu.hi) return false;
    }
    return true;
  }
};

}  // namespace trel

#endif  // TREL_BASELINES_TREE_COVER_INDEX_H_

#include "core/labeling.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/topology.h"

namespace trel {

int64_t NodeLabels::TotalIntervals() const {
  int64_t total = 0;
  for (const IntervalSet& set : intervals) total += set.size();
  return total;
}

namespace {

// Iterative postorder over the forest.  Roots are visited in the order
// they appear in `cover.roots` (they all hang off the paper's virtual
// root).  Numbers are 1*gap, 2*gap, ...; anchor_v is the last number
// assigned before v's subtree was entered.  v's tree interval starts at
// anchor_v + reserve + 1 — the first `reserve` slots above each assigned
// number form that node's refinement pool (Section 4.1), and excluding
// them here keeps a node from claiming concepts later refined in above
// its *preceding* sibling.
void AssignPostorder(const TreeCover& cover, Label gap, Label reserve,
                     NodeLabels& labels) {
  const NodeId n = cover.NumNodes();
  labels.postorder.assign(n, 0);
  labels.tree_interval.assign(n, Interval{0, 0});

  Label last_assigned = 0;
  std::vector<Label> anchor(n, 0);
  // Frame: (node, next child index).
  std::vector<std::pair<NodeId, size_t>> stack;
  for (NodeId root : cover.roots) {
    anchor[root] = last_assigned;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& kids = cover.children[v];
      if (next < kids.size()) {
        const NodeId child = kids[next++];
        anchor[child] = last_assigned;
        stack.emplace_back(child, 0);
      } else {
        last_assigned += gap;
        labels.postorder[v] = last_assigned;
        labels.tree_interval[v] =
            Interval{anchor[v] + reserve + 1, last_assigned};
        stack.pop_back();
      }
    }
  }
}

// out = the maximal intervals of `acc` ∪ `succ`, where `succ` is an
// out-neighbour's set whose member equal to that neighbour's tree
// interval `succ_tree` is padded by `pad`.  Both inputs ascend by lo
// with distinct lo, so one linear merge visits their union in (lo
// ascending, hi descending) order.  In that order an interval is
// subsumed iff an earlier one reaches at least as high, so keeping each
// interval whose hi exceeds every hi before it leaves a sorted antichain.
void MergeMaximal(const std::vector<Interval>& acc,
                  const std::vector<Interval>& succ, const Interval& succ_tree,
                  Label pad, std::vector<Interval>& out) {
  out.clear();
  Label max_hi = std::numeric_limits<Label>::min();
  size_t a = 0;
  size_t b = 0;
  while (a < acc.size() || b < succ.size()) {
    Interval next{0, 0};
    bool take_succ = b < succ.size();
    if (take_succ) {
      next = succ[b];
      if (next == succ_tree) next.hi += pad;
      take_succ = a == acc.size() || next.lo < acc[a].lo ||
                  (next.lo == acc[a].lo && next.hi > acc[a].hi);
    }
    if (take_succ) {
      ++b;
    } else {
      next = acc[a++];
    }
    if (next.hi > max_hi) {
      out.push_back(next);
      max_hi = next.hi;
    }
  }
}

}  // namespace

void PropagateIntervals(const Digraph& graph,
                        const std::vector<NodeId>& reverse_topo,
                        NodeLabels& labels,
                        const std::vector<Label>* pad_per_node) {
  const NodeId n = graph.NumNodes();
  labels.intervals.assign(n, IntervalSet());
  // p's set is the maximal antichain of its own tree interval and every
  // out-neighbour's set: "for every arc (p,q), add all the intervals
  // associated with the node q to the intervals associated with the node
  // p" — tree arcs included; subsumption discards the redundant ones.
  // q's own tree interval is padded with the reserve slack on the way in
  // (Section 4.1), so that predecessors keep claiming nodes later refined
  // in below q.  The antichain does not depend on insertion order, so
  // one linear merge per arc builds it.
  std::vector<Interval> acc;
  std::vector<Interval> merged;
  for (NodeId p : reverse_topo) {
    acc.assign(1, labels.tree_interval[p]);
    for (NodeId q : graph.OutNeighbors(p)) {
      const Label pad = pad_per_node ? (*pad_per_node)[q] : labels.reserve;
      MergeMaximal(acc, labels.intervals[q].intervals(),
                   labels.tree_interval[q], pad, merged);
      acc.swap(merged);
    }
    // Keep the capacity one-at-a-time insertion would have grown, the
    // next power of two: AddArc and RefineAbove insert into these sets,
    // and exact-capacity sets reallocate on their first insert, which
    // slowed the writer's updates and publishes.
    std::vector<Interval> set;
    set.reserve(std::bit_ceil(acc.size()));
    set.assign(acc.begin(), acc.end());
    labels.intervals[p] = IntervalSet::FromSortedAntichain(std::move(set));
  }
}

bool CompactNumberingFits(int64_t num_nodes, Label gap, Label reserve) {
  if (num_nodes <= 0) return true;
  const Label room = kArenaLabelLimit - 1 - reserve;
  // num_nodes * gap <= room, without the product overflowing.
  return room >= 0 && gap <= room / num_nodes;
}

StatusOr<NodeLabels> BuildLabels(const Digraph& graph, const TreeCover& cover,
                                 const LabelingOptions& options) {
  if (cover.NumNodes() != graph.NumNodes()) {
    return InvalidArgumentError("tree cover / graph size mismatch");
  }
  if (options.gap < 1) {
    return InvalidArgumentError("gap must be >= 1");
  }
  if (options.reserve < 0 || options.reserve >= options.gap) {
    return InvalidArgumentError("reserve must be in [0, gap)");
  }
  if (!CompactNumberingFits(graph.NumNodes(), options.gap, options.reserve)) {
    return InvalidArgumentError(
        "numbering " + std::to_string(graph.NumNodes()) + " nodes at gap " +
        std::to_string(options.gap) + " passes the 32-bit label limit");
  }
  TREL_ASSIGN_OR_RETURN(std::vector<NodeId> topo, TopologicalOrder(graph));

  NodeLabels labels;
  labels.gap = options.gap;
  labels.reserve = options.reserve;
  AssignPostorder(cover, options.gap, options.reserve, labels);

  std::vector<NodeId> reverse_topo(topo.rbegin(), topo.rend());
  PropagateIntervals(graph, reverse_topo, labels);

  if (options.merge_adjacent) {
    for (IntervalSet& set : labels.intervals) set.MergeAdjacent();
  }
  return labels;
}

}  // namespace trel

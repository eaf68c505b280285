#include "core/labeling.h"

#include <algorithm>
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

}  // namespace

void PropagateIntervals(const Digraph& graph,
                        const std::vector<NodeId>& reverse_topo,
                        NodeLabels& labels,
                        const std::vector<Label>* pad_per_node) {
  const NodeId n = graph.NumNodes();
  labels.intervals.assign(n, IntervalSet());
  for (NodeId p : reverse_topo) {
    labels.intervals[p].Insert(labels.tree_interval[p]);
    // "For every arc (p,q), add all the intervals associated with the node
    // q to the intervals associated with the node p" — tree arcs included;
    // subsumption discards the redundant ones.  q's own tree interval is
    // padded with the reserve slack on the way in (Section 4.1), so that
    // predecessors keep claiming nodes later refined in below q.
    for (NodeId q : graph.OutNeighbors(p)) {
      const Label pad = pad_per_node ? (*pad_per_node)[q] : labels.reserve;
      for (const Interval& interval : labels.intervals[q].intervals()) {
        Interval to_insert = interval;
        if (interval == labels.tree_interval[q]) {
          to_insert.hi += pad;
        }
        labels.intervals[p].Insert(to_insert);
      }
    }
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

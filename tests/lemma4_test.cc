// Lemma 4 of the paper characterizes the compressed closure's storage
// exactly: the number of non-tree intervals at node i equals |N_i|, where
// N_i is the set of nodes j such that
//   (i)  some path from i to j uses at least one non-tree arc, and
//   (ii) no other node k with property (i) reaches j through tree arcs
//        alone.
// One refinement the paper's wording leaves implicit: a candidate j lying
// in i's *own* subtree is subsumed by i's tree interval and stored for
// free, so it must be excluded from N_i as well (think of a non-tree arc
// that shortcuts back into the subtree below i).
// This test recomputes N_i from first principles (graph search over the
// tree cover) and compares against the interval sets the labeler
// produced — a structural check of the whole propagation pipeline.

#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/compressed_closure.h"
#include "graph/families.h"
#include "graph/generators.h"

namespace trel {
namespace {

// reachable_with_nontree[v]: v is reachable from `source` along a path
// using >= 1 non-tree arc.  States: (node, crossed a non-tree arc yet).
std::vector<bool> ReachableViaNonTreeArc(const Digraph& graph,
                                         const TreeCover& cover,
                                         NodeId source) {
  const NodeId n = graph.NumNodes();
  std::vector<std::vector<bool>> visited(2, std::vector<bool>(n, false));
  std::vector<std::pair<NodeId, int>> stack = {{source, 0}};
  visited[0][source] = true;
  while (!stack.empty()) {
    const auto [v, crossed] = stack.back();
    stack.pop_back();
    for (NodeId w : graph.OutNeighbors(v)) {
      const bool is_tree_arc = cover.parent[w] == v;
      const int next_state = (crossed || !is_tree_arc) ? 1 : 0;
      if (!visited[next_state][w]) {
        visited[next_state][w] = true;
        stack.emplace_back(w, next_state);
      }
    }
  }
  return visited[1];
}

// tree_reaches[k][j]: j is in k's subtree of the cover.
std::vector<std::vector<bool>> TreeReachability(const TreeCover& cover) {
  const NodeId n = cover.NumNodes();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId j = 0; j < n; ++j) {
    for (NodeId k = j; k != kNoNode; k = cover.parent[k]) {
      reach[k][j] = true;
    }
  }
  return reach;
}

void CheckLemma4(const Digraph& graph) {
  // The optimal cover CompressedClosure::Build picks, and the closure
  // over its labels; the closure keeps no cover, so it is built here.
  auto covered = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(covered.ok());
  const TreeCover& cover = *covered;
  auto labels = BuildLabels(graph, cover);
  ASSERT_TRUE(labels.ok());
  const CompressedClosure closure = CompressedClosure::FromParts(*labels);
  const auto tree_reach = TreeReachability(cover);

  for (NodeId i = 0; i < graph.NumNodes(); ++i) {
    const std::vector<bool> candidates =
        ReachableViaNonTreeArc(graph, cover, i);
    // N_i: candidates not tree-dominated by another candidate and not in
    // i's own subtree (self-subsumption, see header comment).
    int64_t n_i = 0;
    for (NodeId j = 0; j < graph.NumNodes(); ++j) {
      if (!candidates[j] || tree_reach[i][j]) continue;
      bool dominated = false;
      for (NodeId k = 0; k < graph.NumNodes(); ++k) {
        if (k != j && candidates[k] && tree_reach[k][j]) {
          dominated = true;
          break;
        }
      }
      if (!dominated) ++n_i;
    }
    const int64_t non_tree_intervals = closure.IntervalsOf(i).size() - 1;
    ASSERT_EQ(non_tree_intervals, n_i) << "node " << i;
  }
}

TEST(Lemma4Test, HoldsOnRandomDags) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    CheckLemma4(RandomDag(40, 2.0, 600 + seed));
  }
  for (uint64_t seed = 0; seed < 3; ++seed) {
    CheckLemma4(RandomDag(30, 5.0, 610 + seed));
  }
}

TEST(Lemma4Test, HoldsOnStructuredFamilies) {
  CheckLemma4(GridDag(5, 6));
  CheckLemma4(CompleteBipartite(7, 7));
  CheckLemma4(GenealogyDag(40, 3, 9));
  CheckLemma4(SeriesParallelDag(40, 11));
}

TEST(Lemma4Test, TreesHaveEmptyNonTreeSets) {
  CheckLemma4(RandomTree(50, 12));
}

}  // namespace
}  // namespace trel

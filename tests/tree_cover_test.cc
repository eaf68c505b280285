#include "core/tree_cover.h"

#include <sys/resource.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

TEST(TreeCoverTest, FailsOnCyclicGraph) {
  Digraph graph = GraphFromArcs(2, {{0, 1}, {1, 0}});
  EXPECT_EQ(ComputeTreeCover(graph, TreeCoverStrategy::kOptimal)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(TreeCoverTest, TreeInputIsItsOwnCover) {
  Digraph tree = RandomTree(30, 1);
  for (TreeCoverStrategy strategy :
       {TreeCoverStrategy::kOptimal, TreeCoverStrategy::kDfs,
        TreeCoverStrategy::kFirstParent, TreeCoverStrategy::kRandom}) {
    auto cover = ComputeTreeCover(tree, strategy, 5);
    ASSERT_TRUE(cover.ok());
    for (NodeId v = 1; v < 30; ++v) {
      EXPECT_EQ(cover->parent[v], tree.InNeighbors(v)[0])
          << TreeCoverStrategyName(strategy);
    }
    EXPECT_EQ(cover->roots, (std::vector<NodeId>{0}));
  }
}

TEST(TreeCoverTest, EveryParentIsAnImmediatePredecessor) {
  Digraph graph = RandomDag(100, 3.0, 7);
  for (TreeCoverStrategy strategy :
       {TreeCoverStrategy::kOptimal, TreeCoverStrategy::kDfs,
        TreeCoverStrategy::kFirstParent, TreeCoverStrategy::kRandom}) {
    auto cover = ComputeTreeCover(graph, strategy, 11);
    ASSERT_TRUE(cover.ok());
    int non_roots = 0;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (cover->parent[v] == kNoNode) {
        EXPECT_EQ(graph.InDegree(v), 0) << TreeCoverStrategyName(strategy);
      } else {
        EXPECT_TRUE(graph.HasArc(cover->parent[v], v));
        ++non_roots;
      }
    }
    // Children lists are consistent with parents.
    int children_total = 0;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      for (NodeId c : cover->children[v]) {
        EXPECT_EQ(cover->parent[c], v);
        ++children_total;
      }
    }
    EXPECT_EQ(children_total, non_roots);
  }
}

TEST(TreeCoverTest, OptimalPicksPredecessorWithLargestPredSet) {
  // Diamond with an extra tail: pred(1) = {0}; pred(2) = {0, 1}.
  // Node 3 has arcs from 1 and 2; Alg1 must pick 2.
  Digraph graph = GraphFromArcs(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->parent[3], 2);
}

// Copies `graph` onto num_nodes + `isolated` ids drawn by a random
// permutation and adds its arcs in shuffled order, so neither id order nor
// insertion order is topological; the extra ids stay isolated.
Digraph ShuffledIds(const Digraph& graph, uint64_t seed, NodeId isolated = 0) {
  const NodeId n = graph.NumNodes() + isolated;
  Random rng(seed);
  std::vector<NodeId> id(n);
  std::iota(id.begin(), id.end(), 0);
  for (NodeId k = n - 1; k > 0; --k) std::swap(id[k], id[rng.Uniform(k + 1)]);
  auto arcs = graph.Arcs();
  for (size_t k = arcs.size(); k > 1; --k) {
    std::swap(arcs[k - 1], arcs[rng.Uniform(k)]);
  }
  Digraph shuffled(n);
  for (const auto& [from, to] : arcs) {
    TREL_CHECK(shuffled.AddArc(id[from], id[to]).ok());
  }
  return shuffled;
}

// Alg1's parents from first principles: each node's in-neighbour with the
// most predecessors, counted off the ground-truth closure, ties to the
// smallest id.
std::vector<NodeId> ExpectedOptimalParents(const Digraph& graph) {
  const NodeId n = graph.NumNodes();
  const ReachabilityMatrix matrix(graph);
  std::vector<int64_t> pred_count(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : matrix.Successors(u)) ++pred_count[v];
  }
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId i : graph.InNeighbors(v)) {
      const NodeId best = parent[v];
      if (best == kNoNode || pred_count[i] > pred_count[best] ||
          (pred_count[i] == pred_count[best] && i < best)) {
        parent[v] = i;
      }
    }
  }
  return parent;
}

void ExpectOptimalParents(const Digraph& graph, const std::string& name) {
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok()) << name;
  const std::vector<NodeId> want = ExpectedOptimalParents(graph);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    ASSERT_EQ(cover->parent[v], want[v]) << name << " node " << v;
  }
}

// Alg1 counts predecessors one 512-rank block at a time; sizes straddle
// the block edges.
TEST(TreeCoverTest, OptimalParentsMatchClosureCountsAtBlockEdges) {
  for (NodeId n : {1, 2, 511, 512, 513, 1025, 1500}) {
    ExpectOptimalParents(ShuffledIds(RandomDag(n, 3.0, 900 + n), 17 + n),
                         "random n=" + std::to_string(n));
  }
}

// Every first-layer node of a layered DAG has no predecessors, so each
// second-layer node chooses among equal counts and the id tie-break
// decides.
TEST(TreeCoverTest, OptimalParentsBreakEqualCountsBySmallestId) {
  ExpectOptimalParents(ShuffledIds(LayeredDag(8, 90, 0.05, 31), 5), "layered");
  ExpectOptimalParents(LayeredDag(3, 300, 0.02, 32), "layered in order");
}

TEST(TreeCoverTest, OptimalParentsWithIsolatedNodes) {
  const Digraph graph = ShuffledIds(RandomDag(600, 2.0, 33), 9, 700);
  ExpectOptimalParents(graph, "isolated");
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());
  int64_t isolated_roots = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (graph.InDegree(v) == 0 && graph.OutDegree(v) == 0) {
      EXPECT_EQ(cover->parent[v], kNoNode);
      ++isolated_roots;
    }
  }
  EXPECT_GE(isolated_roots, 700);
}

// The n^2/8 bytes of per-node predecessor bitsets would take about
// 1.2 GB here; Alg1 must stay linear in the graph.
TEST(TreeCoverTest, OptimalCoverStaysLinearInMemory) {
  const Digraph graph = RandomDag(100000, 1.5, 34);
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  // ru_maxrss is the process's peak resident set, in kilobytes.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)
      << "peak RSS grew from " << before.ru_maxrss << " KB to "
      << after.ru_maxrss << " KB";
}

TEST(TreeCoverFromParentsTest, ValidatesParents) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(TreeCoverFromParents(graph, {kNoNode, 0, 1}).ok());
  // 0 is not an immediate predecessor of 2.
  EXPECT_EQ(TreeCoverFromParents(graph, {kNoNode, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TreeCoverFromParents(graph, {kNoNode, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TreeCoverTest, MultipleRootsAllCovered) {
  // Two disjoint chains.
  Digraph graph = GraphFromArcs(4, {{0, 1}, {2, 3}});
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->roots, (std::vector<NodeId>{0, 2}));
}

}  // namespace
}  // namespace trel

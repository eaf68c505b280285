#include "core/compressed_closure.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/reachability.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

void ExpectMatchesGroundTruth(const Digraph& graph,
                              const CompressedClosure& closure) {
  ReachabilityMatrix matrix(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(closure.Reaches(u, v), matrix.Reaches(u, v))
          << u << "->" << v;
    }
  }
}

TEST(CompressedClosureTest, RejectsCyclicGraph) {
  Digraph graph = GraphFromArcs(2, {{0, 1}, {1, 0}});
  EXPECT_EQ(CompressedClosure::Build(graph).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompressedClosureTest, SingleNode) {
  Digraph graph(1);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_TRUE(closure->Reaches(0, 0));
  EXPECT_TRUE(closure->Successors(0).empty());
  EXPECT_EQ(closure->TotalIntervals(), 1);
}

TEST(CompressedClosureTest, PaperStyleDagMatchesGroundTruth) {
  Digraph graph = testing_util::PaperStyleDag();
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ExpectMatchesGroundTruth(graph, closure.value());
}

TEST(CompressedClosureTest, SuccessorsMatchGroundTruth) {
  Digraph graph = RandomDag(80, 2.5, 21);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ReachabilityMatrix matrix(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    std::vector<NodeId> got = closure->Successors(u);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, matrix.Successors(u)) << "node " << u;
    EXPECT_EQ(closure->CountSuccessors(u),
              static_cast<int64_t>(got.size()));
  }
}

TEST(CompressedClosureTest, PredecessorsMatchGroundTruth) {
  Digraph graph = RandomDag(60, 2.0, 22);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ReachabilityMatrix matrix(graph);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      if (u != v && matrix.Reaches(u, v)) expected.push_back(u);
    }
    std::vector<NodeId> got = closure->Predecessors(v);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "node " << v;
  }
}

// Overlapping antichain members ([1,5] then [3,9] is a valid sorted
// antichain) and labels with gaps between assigned numbers are the two
// regimes where naive range enumeration double-lists nodes or
// mis-handles the self exclusion.  Build the closure directly from
// synthetic parts so both regimes are pinned down exactly.
TEST(CompressedClosureTest, SuccessorsWithOverlappingIntervalsAndGaps) {
  // Four nodes with gap-style numbering (merge-adjacent labels leave
  // holes like these after updates).
  NodeLabels labels;
  labels.postorder = {16, 32, 48, 64};
  labels.gap = 16;
  for (Label p : labels.postorder) {
    labels.tree_interval.push_back({p, p});
  }
  labels.intervals.resize(4);
  // Node 3 (number 64): overlapping members covering 16,32 twice and 48
  // once, plus its own tree interval.
  ASSERT_TRUE(labels.intervals[3].Insert({10, 35}));
  ASSERT_TRUE(labels.intervals[3].Insert({30, 64}));
  // Node 0..2: just their own numbers.
  for (NodeId v = 0; v < 3; ++v) {
    ASSERT_TRUE(labels.intervals[v].Insert({labels.postorder[v],
                                            labels.postorder[v]}));
  }
  CompressedClosure closure = CompressedClosure::FromParts(labels);
  // Despite the overlap, each successor is listed exactly once and the
  // node itself is excluded even though 64 sits inside [30, 64].
  EXPECT_EQ(closure.Successors(3), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(closure.CountSuccessors(3), 3);
  EXPECT_TRUE(closure.Reaches(3, 0));
  EXPECT_FALSE(closure.Reaches(0, 3));
  EXPECT_TRUE(closure.Successors(0).empty());
  EXPECT_EQ(closure.CountSuccessors(0), 0);
}

// Successors and CountSuccessors must agree everywhere, across gap
// numbering, reserve pads, and merge-adjacent labels (which produce the
// widest intervals relative to the assigned numbers).
TEST(CompressedClosureTest, CountSuccessorsConsistentAcrossLabelings) {
  for (const auto& [gap, reserve, merge] :
       std::vector<std::tuple<Label, Label, bool>>{
           {1, 0, false}, {16, 0, false}, {16, 7, false}, {1, 0, true}}) {
    Digraph graph = RandomDag(90, 2.5, 24);
    ClosureOptions options;
    options.labeling.gap = gap;
    options.labeling.reserve = reserve;
    options.labeling.merge_adjacent = merge;
    auto closure = CompressedClosure::Build(graph, options);
    ASSERT_TRUE(closure.ok());
    ReachabilityMatrix matrix(graph);
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      std::vector<NodeId> got = closure->Successors(u);
      EXPECT_EQ(closure->CountSuccessors(u),
                static_cast<int64_t>(got.size()))
          << "node " << u << " gap " << gap;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, matrix.Successors(u)) << "node " << u << " gap " << gap;
    }
  }
}

TEST(CompressedClosureTest, StorageNeverExceedsFullClosure) {
  // Each closure pair costs one unit; each interval costs two.  The
  // compressed form can never lose to the uncompressed one by more than
  // the trivial 2x per-node floor, and on random graphs it wins big; here
  // we assert the defining inequality intervals <= pairs + n (every
  // interval covers at least one distinct successor or the node itself).
  Digraph graph = RandomDag(150, 3.0, 23);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ReachabilityMatrix matrix(graph);
  EXPECT_LE(closure->TotalIntervals(),
            matrix.NumClosurePairs() + graph.NumNodes());
}

// ---------------------------------------------------------------------------
// Property sweep: every strategy, gap, and merge setting must agree with
// DFS ground truth on random DAGs of varying density.
// ---------------------------------------------------------------------------

struct SweepParam {
  NodeId num_nodes;
  double degree;
  uint64_t seed;
  TreeCoverStrategy strategy;
  Label gap;
  Label reserve;
  bool merge_adjacent;
  ChildOrder child_order = ChildOrder::kInsertion;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string name = "n" + std::to_string(p.num_nodes) + "_d" +
                     std::to_string(static_cast<int>(p.degree * 10)) + "_s" +
                     std::to_string(p.seed) + "_" +
                     TreeCoverStrategyName(p.strategy) + "_g" +
                     std::to_string(p.gap) + "_r" + std::to_string(p.reserve);
  if (p.merge_adjacent) name += "_merged";
  if (p.child_order != ChildOrder::kInsertion) {
    name += std::string("_") + ChildOrderName(p.child_order);
  }
  return name;
}

class ClosureSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ClosureSweepTest, MatchesGroundTruth) {
  const SweepParam& p = GetParam();
  Digraph graph = RandomDag(p.num_nodes, p.degree, p.seed);
  ClosureOptions options;
  options.strategy = p.strategy;
  options.seed = p.seed;
  options.child_order = p.child_order;
  options.labeling.gap = p.gap;
  options.labeling.reserve = p.reserve;
  options.labeling.merge_adjacent = p.merge_adjacent;
  auto closure = CompressedClosure::Build(graph, options);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  ExpectMatchesGroundTruth(graph, closure.value());
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  for (NodeId n : {2, 10, 40}) {
    for (double degree : {0.5, 1.5, 3.0}) {
      for (uint64_t seed : {1u, 2u}) {
        for (TreeCoverStrategy strategy :
             {TreeCoverStrategy::kOptimal, TreeCoverStrategy::kDfs,
              TreeCoverStrategy::kFirstParent, TreeCoverStrategy::kRandom}) {
          params.push_back({n, degree, seed, strategy, 1, 0, false});
        }
        // Gap/reserve/merge variants on the optimal strategy.
        params.push_back(
            {n, degree, seed, TreeCoverStrategy::kOptimal, 16, 0, false});
        params.push_back(
            {n, degree, seed, TreeCoverStrategy::kOptimal, 16, 7, false});
        params.push_back(
            {n, degree, seed, TreeCoverStrategy::kOptimal, 1, 0, true});
        // Sibling-reordering variants (with and without merging).
        for (ChildOrder order :
             {ChildOrder::kBySubtreeSizeAsc, ChildOrder::kBySubtreeSizeDesc,
              ChildOrder::kByNodeId}) {
          params.push_back({n, degree, seed, TreeCoverStrategy::kOptimal, 1,
                            0, true, order});
          params.push_back({n, degree, seed, TreeCoverStrategy::kOptimal, 1,
                            0, false, order});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllConfigurations, ClosureSweepTest,
                         ::testing::ValuesIn(MakeSweep()), SweepName);

// Denser spot checks (not a full cartesian sweep to keep runtime sane).
TEST(CompressedClosureTest, DenseGraphMatchesGroundTruth) {
  Digraph graph = RandomDag(30, 8.0, 31);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ExpectMatchesGroundTruth(graph, closure.value());
}

TEST(CompressedClosureTest, LayeredGraphMatchesGroundTruth) {
  Digraph graph = LayeredDag(5, 6, 0.4, 17);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ExpectMatchesGroundTruth(graph, closure.value());
}

TEST(CompressedClosureTest, EmptyGraph) {
  Digraph graph;
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->NumNodes(), 0);
  EXPECT_EQ(closure->TotalIntervals(), 0);
}

TEST(CompressedClosureTest, ArclessGraphIsAllSingletons) {
  Digraph graph(5);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->TotalIntervals(), 5);
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_TRUE(closure->Successors(u).empty());
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(closure->Reaches(u, v), u == v);
    }
  }
}

TEST(CompressedClosureTest, DisconnectedComponents) {
  Digraph graph = GraphFromArcs(6, {{0, 1}, {2, 3}, {4, 5}});
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ExpectMatchesGroundTruth(graph, closure.value());
}

}  // namespace
}  // namespace trel

#include "core/labeling.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/random.h"
#include "core/chain_propagator.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/topology.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

NodeLabels MustBuild(const Digraph& graph, const LabelingOptions& options = {},
                     TreeCoverStrategy strategy = TreeCoverStrategy::kOptimal) {
  auto cover = ComputeTreeCover(graph, strategy);
  TREL_CHECK(cover.ok());
  auto labels = BuildLabels(graph, cover.value(), options);
  TREL_CHECK(labels.ok()) << labels.status().ToString();
  return std::move(labels).value();
}

TEST(LabelingTest, TreeGetsOneIntervalPerNode) {
  // Section 3.1: for a tree, O(n) storage — exactly one interval per node.
  Digraph tree = RandomTree(60, 3);
  NodeLabels labels = MustBuild(tree);
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    EXPECT_EQ(labels.intervals[v].size(), 1) << "node " << v;
  }
  EXPECT_EQ(labels.TotalIntervals(), 60);
  EXPECT_EQ(labels.StorageUnits(), 120);
}

TEST(LabelingTest, TreeIntervalIsLowestDescendantToOwnPostorder) {
  //        0
  //      / | \ .
  //     1  2  3
  //        |
  //        4
  Digraph tree = GraphFromArcs(5, {{0, 1}, {0, 2}, {0, 3}, {2, 4}});
  NodeLabels labels = MustBuild(tree);
  // Postorder with gap 1: children in insertion order: 1, (4, 2), 3, 0.
  EXPECT_EQ(labels.postorder[1], 1);
  EXPECT_EQ(labels.postorder[4], 2);
  EXPECT_EQ(labels.postorder[2], 3);
  EXPECT_EQ(labels.postorder[3], 4);
  EXPECT_EQ(labels.postorder[0], 5);
  // Lemma 1 intervals.
  EXPECT_EQ(labels.tree_interval[1], (Interval{1, 1}));
  EXPECT_EQ(labels.tree_interval[2], (Interval{2, 3}));
  EXPECT_EQ(labels.tree_interval[0], (Interval{1, 5}));
}

TEST(LabelingTest, Lemma1PathIffIntervalContains) {
  Digraph tree = RandomTree(40, 9);
  NodeLabels labels = MustBuild(tree);
  ReachabilityMatrix matrix(tree);
  for (NodeId a = 0; a < tree.NumNodes(); ++a) {
    for (NodeId b = 0; b < tree.NumNodes(); ++b) {
      EXPECT_EQ(labels.tree_interval[a].Contains(labels.postorder[b]),
                matrix.Reaches(a, b))
          << a << "->" << b;
    }
  }
}

TEST(LabelingTest, DagSubsumptionDiscardsInheritedTreeIntervals) {
  // Diamond 0->{1,2}->3: whichever of 1,2 is not 3's tree parent inherits
  // 3's tree interval as its only non-tree interval; node 0 subsumes
  // everything into its own tree interval.
  Digraph graph = GraphFromArcs(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  NodeLabels labels = MustBuild(graph);
  EXPECT_EQ(labels.intervals[0].size(), 1);
  EXPECT_EQ(labels.intervals[3].size(), 1);
  EXPECT_EQ(labels.intervals[1].size() + labels.intervals[2].size(), 3);
}

TEST(LabelingTest, GapSpacingMultipliesNumbers) {
  Digraph tree = GraphFromArcs(3, {{0, 1}, {0, 2}});
  LabelingOptions options;
  options.gap = 10;
  NodeLabels labels = MustBuild(tree, options);
  EXPECT_EQ(labels.postorder[1], 10);
  EXPECT_EQ(labels.postorder[2], 20);
  EXPECT_EQ(labels.postorder[0], 30);
  EXPECT_EQ(labels.tree_interval[0], (Interval{1, 30}));
  EXPECT_EQ(labels.tree_interval[2], (Interval{11, 20}));
}

TEST(LabelingTest, RejectsBadOptions) {
  Digraph graph = GraphFromArcs(2, {{0, 1}});
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());
  LabelingOptions bad_gap;
  bad_gap.gap = 0;
  EXPECT_FALSE(BuildLabels(graph, cover.value(), bad_gap).ok());
  LabelingOptions bad_reserve;
  bad_reserve.gap = 4;
  bad_reserve.reserve = 4;
  EXPECT_FALSE(BuildLabels(graph, cover.value(), bad_reserve).ok());
}

// The arena stores labels in 32 bits, so a numbering whose highest label,
// n × gap + reserve, would reach 2^32 is rejected up front by both full
// builders rather than aborting the later arena build.
TEST(LabelingTest, RejectsNumberingPastTheArenaLabelLimit) {
  const Digraph graph = RandomDag(100, 2.0, 7);
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  ASSERT_TRUE(cover.ok());

  LabelingOptions too_wide;
  too_wide.gap = Label{1} << 26;  // 100 nodes would reach 6.7e9.
  EXPECT_EQ(BuildLabels(graph, cover.value(), too_wide).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildChainLabeling(graph, too_wide).status().code(),
            StatusCode::kInvalidArgument);

  // The widest gap that fits: 100 × gap + reserve <= 2^32 - 1.
  LabelingOptions widest;
  widest.reserve = 7;
  widest.gap = (kArenaLabelLimit - 1 - widest.reserve) / 100;
  ASSERT_TRUE(CompactNumberingFits(100, widest.gap, widest.reserve));
  const NodeLabels labels = MustBuild(graph, widest);
  Label max_label = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    max_label = std::max(max_label, labels.postorder[v]);
    max_label = std::max(max_label, labels.intervals[v].intervals().back().hi);
  }
  EXPECT_EQ(*std::max_element(labels.postorder.begin(),
                              labels.postorder.end()),
            100 * widest.gap);
  EXPECT_LT(max_label, kArenaLabelLimit);
  const auto chain = BuildChainLabeling(graph, widest);
  EXPECT_NE(chain.status().code(), StatusCode::kInvalidArgument)
      << chain.status().ToString();

  LabelingOptions one_more = widest;
  one_more.gap += 1;
  EXPECT_FALSE(CompactNumberingFits(100, one_more.gap, one_more.reserve));
  EXPECT_EQ(BuildLabels(graph, cover.value(), one_more).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildChainLabeling(graph, one_more).status().code(),
            StatusCode::kInvalidArgument);
  // Gaps near 2^63 must not overflow the check.
  EXPECT_FALSE(CompactNumberingFits(3, Label{1} << 62, 0));
}

TEST(LabelingTest, ReservePadsPropagatedCopiesOnly) {
  // 0 -> 1 (tree), 2 -> 1 (non-tree): 2 inherits 1's padded interval.
  Digraph graph = GraphFromArcs(3, {{0, 1}, {2, 1}});
  LabelingOptions options;
  options.gap = 10;
  options.reserve = 5;
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kFirstParent);
  ASSERT_TRUE(cover.ok());
  auto labels = BuildLabels(graph, cover.value(), options);
  ASSERT_TRUE(labels.ok());
  const Label p1 = labels->postorder[1];
  // 1's own interval is unpadded.
  EXPECT_EQ(labels->tree_interval[1].hi, p1);
  ASSERT_EQ(labels->intervals[1].size(), 1);
  EXPECT_EQ(labels->intervals[1].intervals()[0].hi, p1);
  // 2 holds the padded copy [lo, p1 + reserve] (plus its own interval).
  bool found_padded = false;
  for (const Interval& interval : labels->intervals[2].intervals()) {
    if (interval.lo == labels->tree_interval[1].lo) {
      EXPECT_EQ(interval.hi, p1 + 5);
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(LabelingTest, MergeAdjacentOnlyReducesCount) {
  Digraph graph = RandomDag(120, 2.0, 13);
  NodeLabels plain = MustBuild(graph);
  LabelingOptions merged_options;
  merged_options.merge_adjacent = true;
  NodeLabels merged = MustBuild(graph, merged_options);
  EXPECT_LE(merged.TotalIntervals(), plain.TotalIntervals());
}

TEST(LabelingTest, BipartiteWorstCaseIsQuadratic) {
  // Figure 3.6: m top nodes fanning into m bottom nodes costs ~m^2
  // intervals; the Figure 3.7 intermediary collapses it to O(n).
  const NodeId m = 12;
  NodeLabels dense = MustBuild(CompleteBipartite(m, m));
  NodeLabels routed = MustBuild(BipartiteWithIntermediary(m, m));
  // Dense: one top node adopts all bottoms into the tree (1 interval);
  // each other top node holds its own interval plus m bottom intervals:
  // m + 1 + (m-1)(m+1) = m^2 + m.
  EXPECT_EQ(dense.TotalIntervals(), m * m + m);
  // Routed: bottoms m, middle 1, adopting top 1, and 2 for each other top
  // node = 3m.
  EXPECT_EQ(routed.TotalIntervals(), 3 * m);
}

// Section 3.2's propagation as literally stated: one IntervalSet::Insert
// per inherited interval, in reverse topological order, with each
// out-neighbour's tree interval padded by pad_per_node (or the uniform
// reserve).  PropagateIntervals must reproduce it exactly.
std::vector<IntervalSet> ReferencePropagation(
    const Digraph& graph, const NodeLabels& labels,
    const std::vector<Label>* pad_per_node = nullptr) {
  auto topo = TopologicalOrder(graph);
  TREL_CHECK(topo.ok());
  std::vector<IntervalSet> intervals(graph.NumNodes());
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    const NodeId p = *it;
    intervals[p].Insert(labels.tree_interval[p]);
    for (NodeId q : graph.OutNeighbors(p)) {
      const Label pad = pad_per_node ? (*pad_per_node)[q] : labels.reserve;
      for (const Interval& interval : intervals[q].intervals()) {
        Interval to_insert = interval;
        if (interval == labels.tree_interval[q]) to_insert.hi += pad;
        intervals[p].Insert(to_insert);
      }
    }
  }
  return intervals;
}

void ExpectSameSets(const std::vector<IntervalSet>& got,
                    const std::vector<IntervalSet>& want,
                    const std::string& name) {
  ASSERT_EQ(got.size(), want.size()) << name;
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(got[v], want[v]) << name << " node " << v << ": got " << got[v]
                               << " want " << want[v];
  }
}

TEST(LabelingTest, PropagationEqualsPerIntervalInsertion) {
  const std::vector<std::pair<std::string, Digraph>> graphs = {
      {"random", RandomDag(600, 3.0, 61)},
      {"layered", LayeredDag(6, 90, 0.06, 62)},
      {"bipartite", CompleteBipartite(120, 150)}};
  for (const auto& [graph_name, graph] : graphs) {
    for (TreeCoverStrategy strategy :
         {TreeCoverStrategy::kOptimal, TreeCoverStrategy::kDfs,
          TreeCoverStrategy::kFirstParent, TreeCoverStrategy::kRandom}) {
      auto cover = ComputeTreeCover(graph, strategy, 63);
      ASSERT_TRUE(cover.ok());
      for (Label gap : {1, 4, 64}) {
        for (Label reserve : {Label{0}, gap - 1}) {
          if (gap == 1 && reserve > 0) continue;
          for (bool merge : {false, true}) {
            LabelingOptions options;
            options.gap = gap;
            options.reserve = reserve;
            options.merge_adjacent = merge;
            auto labels = BuildLabels(graph, cover.value(), options);
            ASSERT_TRUE(labels.ok());
            std::vector<IntervalSet> want =
                ReferencePropagation(graph, labels.value());
            if (merge) {
              for (IntervalSet& set : want) set.MergeAdjacent();
            }
            ExpectSameSets(labels->intervals, want,
                           graph_name + " " +
                               TreeCoverStrategyName(strategy) + " gap " +
                               std::to_string(gap) + " reserve " +
                               std::to_string(reserve) +
                               (merge ? " merged" : ""));
          }
        }
      }
    }
  }
}

// Per-node pads, including pads past the gap: a padded tree interval can
// then subsume its owner's other intervals, and the merge must still
// leave exactly the antichain Insert leaves.
TEST(LabelingTest, PropagationEqualsInsertionWithMixedPads) {
  const Digraph graph = RandomDag(500, 3.0, 64);
  LabelingOptions options;
  options.gap = 8;
  options.reserve = 7;
  NodeLabels labels = MustBuild(graph, options);
  Random rng(65);
  std::vector<Label> pads(graph.NumNodes());
  for (Label& pad : pads) pad = static_cast<Label>(rng.Uniform(3 * 8));
  const std::vector<IntervalSet> want =
      ReferencePropagation(graph, labels, &pads);
  auto topo = TopologicalOrder(graph);
  ASSERT_TRUE(topo.ok());
  PropagateIntervals(graph, std::vector<NodeId>(topo->rbegin(), topo->rend()),
                     labels, &pads);
  ExpectSameSets(labels.intervals, want, "mixed pads");
}

// Deletions re-propagate a dynamic index with its per-node reserve pools
// as pads.  Leaves stacked under one parent by AddLeafUnder hold pools
// capped by their holes, so the pads differ from node to node.
TEST(LabelingTest, DeletionRepropagationEqualsInsertion) {
  auto dynamic = DynamicClosure::Build(RandomDag(300, 2.0, 66));
  ASSERT_TRUE(dynamic.ok());
  // Per parent: two leaves and a grandchild under the first.  The later
  // leaves' holes are narrower than the reserve, which caps their pools.
  std::vector<NodeId> leaves;
  for (NodeId parent = 0; parent < 20; ++parent) {
    auto first = dynamic->AddLeafUnder(parent);
    auto second = dynamic->AddLeafUnder(parent);
    ASSERT_TRUE(first.ok() && second.ok());
    auto grandchild = dynamic->AddLeafUnder(first.value());
    ASSERT_TRUE(grandchild.ok());
    leaves.insert(leaves.end(),
                  {first.value(), second.value(), grandchild.value()});
  }
  ASSERT_EQ(dynamic->stats().renumbers, 0);
  Random rng(67);
  for (NodeId leaf : leaves) {
    (void)dynamic->AddArc(static_cast<NodeId>(20 + rng.Uniform(280)), leaf);
  }
  const auto pools = [&] {
    std::vector<Label> pads;
    for (NodeId v = 0; v < dynamic->NumNodes(); ++v) {
      pads.push_back(dynamic->ReservePool(v));
    }
    return pads;
  };
  std::vector<Label> distinct = pools();
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_GE(distinct.size(), 3u);

  for (int round = 0; round < 6; ++round) {
    // Alternate non-tree and tree arcs; both end in re-propagation.
    const bool tree = round % 2 == 1;
    auto arcs = dynamic->graph().Arcs();
    const size_t start = rng.Uniform(arcs.size());
    bool removed = false;
    for (size_t k = 0; k < arcs.size() && !removed; ++k) {
      const auto [a, b] = arcs[(start + k) % arcs.size()];
      if (dynamic->IsTreeArc(a, b) != tree) continue;
      ASSERT_TRUE(dynamic->RemoveArc(a, b).ok());
      removed = true;
    }
    ASSERT_TRUE(removed);
    ASSERT_EQ(dynamic->stats().reoptimizes, 0);
    const std::vector<Label> pads = pools();
    ExpectSameSets(dynamic->labels().intervals,
                   ReferencePropagation(dynamic->graph(), dynamic->labels(),
                                        &pads),
                   "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace trel

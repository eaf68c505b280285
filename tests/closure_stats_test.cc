#include "core/closure_stats.h"

#include <utility>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/path_finder.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

// The optimal cover and the closure over its labels, as
// CompressedClosure::Build computes them; the closure keeps no cover, and
// the stats need it.
struct CoveredClosure {
  TreeCover cover;
  CompressedClosure closure;
};

CoveredClosure BuildCovered(const Digraph& graph) {
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  TREL_CHECK(cover.ok());
  auto labels = BuildLabels(graph, *cover);
  TREL_CHECK(labels.ok());
  return {std::move(*cover), CompressedClosure::FromParts(*labels)};
}

TEST(ClosureStatsTest, ChainStats) {
  Digraph graph = GraphFromArcs(4, {{0, 1}, {1, 2}, {2, 3}});
  const CoveredClosure built = BuildCovered(graph);
  ClosureStats stats = ComputeClosureStats(graph, built.cover, built.closure);
  EXPECT_EQ(stats.num_nodes, 4);
  EXPECT_EQ(stats.num_arcs, 3);
  EXPECT_EQ(stats.num_tree_arcs, 3);
  EXPECT_EQ(stats.num_roots, 1);
  EXPECT_EQ(stats.total_intervals, 4);
  EXPECT_EQ(stats.storage_units, 8);
  EXPECT_EQ(stats.max_intervals_per_node, 1);
  EXPECT_DOUBLE_EQ(stats.single_interval_fraction, 1.0);
  EXPECT_EQ(stats.tree_depth_max, 3);
  EXPECT_DOUBLE_EQ(stats.tree_depth_avg, 1.5);
  // Histogram: 0 nodes with 0 intervals, 4 with exactly 1.
  EXPECT_EQ(stats.interval_histogram[0], 0);
  EXPECT_EQ(stats.interval_histogram[1], 4);
}

TEST(ClosureStatsTest, HistogramTailAggregates) {
  // Bipartite worst case: top nodes carry many intervals.
  Digraph graph = CompleteBipartite(6, 6);
  const CoveredClosure built = BuildCovered(graph);
  ClosureStats stats =
      ComputeClosureStats(graph, built.cover, built.closure, 4);
  EXPECT_EQ(static_cast<int>(stats.interval_histogram.size()), 4);
  int64_t total_nodes = 0;
  for (int64_t count : stats.interval_histogram) total_nodes += count;
  EXPECT_EQ(total_nodes, graph.NumNodes());
  // Five non-adopting top nodes carry 7 intervals each -> tail bucket.
  EXPECT_EQ(stats.interval_histogram[3], 5);
  EXPECT_EQ(stats.max_intervals_per_node, 7);
}

TEST(ClosureStatsTest, SumsMatchClosureAccessors) {
  Digraph graph = RandomDag(120, 2.5, 240);
  const CoveredClosure built = BuildCovered(graph);
  ClosureStats stats = ComputeClosureStats(graph, built.cover, built.closure);
  EXPECT_EQ(stats.total_intervals, built.closure.TotalIntervals());
  EXPECT_EQ(stats.storage_units, built.closure.StorageUnits());
  EXPECT_GT(stats.single_interval_fraction, 0.2);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace trel

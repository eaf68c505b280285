// Cross-cutting differential suite: every reachability structure in the
// library must agree with DFS ground truth on the same workload, for
// every graph family.  This is the integration net under the per-module
// unit tests — a regression anywhere in the stack trips it.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/chain_cover.h"
#include "baselines/full_closure.h"
#include "baselines/inverse_closure.h"
#include "baselines/multi_hierarchy.h"
#include "baselines/tree_cover_index.h"
#include "core/compressed_closure.h"
#include "core/dynamic_closure.h"
#include "core/predecessor_index.h"
#include "graph/families.h"
#include "graph/generators.h"
#include "graph/reachability.h"

namespace trel {
namespace {

struct FamilyParam {
  std::string name;
  Digraph (*make)(uint64_t seed);
};

Digraph MakeRandomSparse(uint64_t seed) { return RandomDag(70, 1.5, seed); }
Digraph MakeRandomDense(uint64_t seed) { return RandomDag(45, 6.0, seed); }
Digraph MakeTree(uint64_t seed) { return RandomTree(80, seed); }
Digraph MakeGrid(uint64_t) { return GridDag(7, 9); }
Digraph MakeSeriesParallel(uint64_t seed) {
  return SeriesParallelDag(60, seed);
}
Digraph MakePowerLaw(uint64_t seed) { return PowerLawDag(70, 2.0, 10, seed); }
Digraph MakeGenealogy(uint64_t seed) { return GenealogyDag(70, 4, seed); }
Digraph MakeBipartite(uint64_t) { return CompleteBipartite(9, 9); }
Digraph MakeLayered(uint64_t seed) { return LayeredDag(6, 8, 0.3, seed); }

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<FamilyParam, uint64_t>> {};

TEST_P(DifferentialTest, AllIndexesAgreeWithGroundTruth) {
  const auto& [family, seed] = GetParam();
  const Digraph graph = family.make(seed);
  const ReachabilityMatrix truth(graph);

  auto compressed = CompressedClosure::Build(graph);
  ASSERT_TRUE(compressed.ok());
  auto dynamic = DynamicClosure::Build(graph);
  ASSERT_TRUE(dynamic.ok());
  auto bidirectional = BidirectionalClosure::Build(graph);
  ASSERT_TRUE(bidirectional.ok());
  auto inverse = InverseClosure::Build(graph);
  ASSERT_TRUE(inverse.ok());
  auto chains = ChainCover::Build(graph, ChainCover::Method::kGreedy);
  ASSERT_TRUE(chains.ok());
  const TreeCoverIndex trees = TreeCoverIndex::Build(graph, 2, seed);
  auto multi = MultiHierarchyLabeling::Build(graph);
  ASSERT_TRUE(multi.ok());
  FullClosure full(graph);

  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      const bool expected = truth.Reaches(u, v);
      ASSERT_EQ(compressed->Reaches(u, v), expected)
          << family.name << " compressed " << u << "->" << v;
      ASSERT_EQ(dynamic->Reaches(u, v), expected)
          << family.name << " dynamic " << u << "->" << v;
      ASSERT_EQ(bidirectional->Reaches(u, v), expected)
          << family.name << " bidirectional " << u << "->" << v;
      ASSERT_EQ(inverse->Reaches(u, v), expected)
          << family.name << " inverse " << u << "->" << v;
      ASSERT_EQ(chains->Reaches(u, v), expected)
          << family.name << " chains " << u << "->" << v;
      ASSERT_EQ(trees.Reaches(u, v), expected)
          << family.name << " trees " << u << "->" << v;
      ASSERT_EQ(full.Reaches(u, v), expected)
          << family.name << " full " << u << "->" << v;
      if (multi->Reaches(u, v)) {  // Sound but incomplete by design.
        ASSERT_TRUE(expected)
            << family.name << " multi-hierarchy false positive " << u
            << "->" << v;
      }
    }
  }

  // Theorem 2 spot check rides along: tree storage <= greedy chains.
  EXPECT_LE(compressed->TotalIntervals(), chains->StorageUnits())
      << family.name;
}

std::vector<FamilyParam> Families() {
  return {
      {"random_sparse", MakeRandomSparse},
      {"random_dense", MakeRandomDense},
      {"tree", MakeTree},
      {"grid", MakeGrid},
      {"series_parallel", MakeSeriesParallel},
      {"power_law", MakePowerLaw},
      {"genealogy", MakeGenealogy},
      {"bipartite", MakeBipartite},
      {"layered", MakeLayered},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Families, DifferentialTest,
    ::testing::Combine(::testing::ValuesIn(Families()),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<FamilyParam, uint64_t>>&
           info) {
      return std::get<0>(info.param).name + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace trel

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "graph/graph_io.h"
#include "graph/reachability.h"
#include "graph/scc.h"
#include "graph/topology.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

TEST(DigraphTest, AddNodesAndArcs) {
  Digraph graph(3);
  EXPECT_EQ(graph.NumNodes(), 3);
  EXPECT_EQ(graph.NumArcs(), 0);
  EXPECT_TRUE(graph.AddArc(0, 1).ok());
  EXPECT_TRUE(graph.AddArc(1, 2).ok());
  EXPECT_EQ(graph.NumArcs(), 2);
  EXPECT_TRUE(graph.HasArc(0, 1));
  EXPECT_FALSE(graph.HasArc(1, 0));
  const NodeId added = graph.AddNode();
  EXPECT_EQ(added, 3);
  EXPECT_EQ(graph.NumNodes(), 4);
}

TEST(DigraphTest, RejectsSelfLoopsDuplicatesAndBadEndpoints) {
  Digraph graph(2);
  EXPECT_EQ(graph.AddArc(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.AddArc(0, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.AddArc(-1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(graph.AddArc(0, 1).ok());
  EXPECT_EQ(graph.AddArc(0, 1).code(), StatusCode::kAlreadyExists);
}

TEST(DigraphTest, RemoveArcUpdatesBothDirections) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_TRUE(graph.RemoveArc(0, 2).ok());
  EXPECT_FALSE(graph.HasArc(0, 2));
  EXPECT_EQ(graph.NumArcs(), 2);
  EXPECT_EQ(graph.InDegree(2), 1);
  EXPECT_EQ(graph.RemoveArc(0, 2).code(), StatusCode::kNotFound);
}

TEST(DigraphTest, RootsAndLeaves) {
  Digraph graph = GraphFromArcs(4, {{0, 1}, {0, 2}, {2, 3}});
  EXPECT_EQ(graph.RootNodes(), (std::vector<NodeId>{0}));
  EXPECT_EQ(graph.LeafNodes(), (std::vector<NodeId>{1, 3}));
}

TEST(DigraphTest, ArcsEnumeration) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 2}});
  auto arcs = graph.Arcs();
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(arcs[1], (std::pair<NodeId, NodeId>{1, 2}));
}

TEST(TopologyTest, OrdersRespectArcs) {
  Digraph graph = GraphFromArcs(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  auto order = TopologicalOrder(graph);
  ASSERT_TRUE(order.ok());
  auto position = PositionsInOrder(order.value(), graph.NumNodes());
  for (const auto& [from, to] : graph.Arcs()) {
    EXPECT_LT(position[from], position[to]);
  }
}

TEST(TopologyTest, DetectsCycle) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(TopologicalOrder(graph).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(IsAcyclic(graph));
  EXPECT_TRUE(IsAcyclic(GraphFromArcs(3, {{0, 1}, {1, 2}})));
}

TEST(SccTest, AcyclicGraphHasSingletonComponents) {
  Digraph graph = GraphFromArcs(4, {{0, 1}, {1, 2}, {2, 3}});
  Condensation condensation = CondenseScc(graph);
  EXPECT_EQ(condensation.NumComponents(), 4);
  EXPECT_EQ(condensation.dag.NumArcs(), 3);
}

TEST(SccTest, CollapsesCycle) {
  // 0 -> (1 <-> 2) -> 3, plus 2 -> 1 back edge forms the SCC {1,2}.
  Digraph graph = GraphFromArcs(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  Condensation condensation = CondenseScc(graph);
  EXPECT_EQ(condensation.NumComponents(), 3);
  EXPECT_EQ(condensation.component_of[1], condensation.component_of[2]);
  EXPECT_NE(condensation.component_of[0], condensation.component_of[1]);
  EXPECT_TRUE(IsAcyclic(condensation.dag));
}

TEST(SccTest, LargeCycleCollapsesToOneComponent) {
  const int n = 1000;  // Also exercises the iterative Tarjan's depth.
  Digraph graph(n);
  for (int v = 0; v < n; ++v) {
    ASSERT_TRUE(graph.AddArc(v, (v + 1) % n).ok());
  }
  Condensation condensation = CondenseScc(graph);
  EXPECT_EQ(condensation.NumComponents(), 1);
  EXPECT_EQ(static_cast<int>(condensation.members[0].size()), n);
}

TEST(ReachabilityTest, DfsReachesFollowsPaths) {
  Digraph graph = GraphFromArcs(5, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_TRUE(DfsReaches(graph, 0, 2));
  EXPECT_TRUE(DfsReaches(graph, 0, 0));
  EXPECT_FALSE(DfsReaches(graph, 0, 4));
  EXPECT_FALSE(DfsReaches(graph, 2, 0));
}

TEST(ReachabilityTest, MatrixMatchesDfsOnDag) {
  Digraph graph = testing_util::PaperStyleDag();
  ReachabilityMatrix matrix(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      EXPECT_EQ(matrix.Reaches(u, v), DfsReaches(graph, u, v))
          << u << "->" << v;
    }
  }
}

TEST(ReachabilityTest, MatrixHandlesCycles) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 0}, {1, 2}});
  ReachabilityMatrix matrix(graph);
  EXPECT_TRUE(matrix.Reaches(0, 1));
  EXPECT_TRUE(matrix.Reaches(1, 0));
  EXPECT_TRUE(matrix.Reaches(0, 2));
  EXPECT_FALSE(matrix.Reaches(2, 0));
  EXPECT_EQ(matrix.NumClosurePairs(), 4);  // 0->1, 0->2, 1->0, 1->2.
}

TEST(ReachabilityTest, ClosurePairsCountExcludesDiagonal) {
  // Chain 0->1->2: pairs (0,1),(0,2),(1,2).
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 2}});
  ReachabilityMatrix matrix(graph);
  EXPECT_EQ(matrix.NumClosurePairs(), 3);
  EXPECT_EQ(matrix.Successors(0), (std::vector<NodeId>{1, 2}));
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  Digraph graph = GraphFromArcs(4, {{0, 1}, {2, 3}});
  std::ostringstream os;
  WriteEdgeList(graph, os);
  std::istringstream is(os.str());
  auto read = ReadEdgeList(is);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value() == graph);
}

TEST(GraphIoTest, ReadRejectsMalformedInput) {
  {
    std::istringstream is("0 1\n");
    EXPECT_EQ(ReadEdgeList(is).status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream is("# nodes 2\n0 x\n");
    EXPECT_EQ(ReadEdgeList(is).status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream is("# nodes 2\n0 5\n");
    EXPECT_EQ(ReadEdgeList(is).status().code(), StatusCode::kInvalidArgument);
  }
  // Ids past 32 bits must not wrap into range (2^32 + 1 -> 1), and
  // nothing may follow the two ids: a weighted list must not load as an
  // unweighted one.
  for (const char* arc : {"4294967297 4294967298\n", "-4294967295 2\n",
                          "0 1 junk\n", "0 1 5\n"}) {
    std::istringstream is(std::string("# nodes 3\n") + arc);
    const StatusOr<Digraph> read = ReadEdgeList(is);
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument) << arc;
    EXPECT_NE(read.status().message().find("line 2"), std::string::npos)
        << read.status().ToString();
  }
  {
    std::istringstream is("# nodes 3 junk\n0 1\n");
    const StatusOr<Digraph> read = ReadEdgeList(is);
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(read.status().message().find("line 1"), std::string::npos)
        << read.status().ToString();
  }
  // Trailing blanks and CRLF line ends still load.
  std::istringstream crlf("# nodes 3 \r\n0 1\r\n1 2 \t\r\n");
  const StatusOr<Digraph> read = ReadEdgeList(crlf);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->NumNodes(), 3);
  EXPECT_TRUE(read->HasArc(0, 1));
  EXPECT_TRUE(read->HasArc(1, 2));
  EXPECT_EQ(read->NumArcs(), 2);
}

TEST(GraphIoTest, DotMarksNonTreeArcsDashed) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {0, 2}, {1, 2}});
  std::vector<NodeId> parent = {kNoNode, 0, 1};
  const std::string dot = ToDot(graph, parent);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2 [style=dashed];"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2;"), std::string::npos);
}

}  // namespace
}  // namespace trel

#include "core/dynamic_closure.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "storage/update_log.h"
#include "tests/test_util.h"

namespace trel {
namespace {

using testing_util::GraphFromArcs;

// Checks the dynamic index against DFS ground truth on its own graph.
void ExpectConsistent(const DynamicClosure& closure) {
  const Digraph& graph = closure.graph();
  ReachabilityMatrix matrix(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(closure.Reaches(u, v), matrix.Reaches(u, v))
          << u << "->" << v;
    }
  }
}

TEST(DynamicClosureTest, BuildFromGraphMatchesGroundTruth) {
  Digraph graph = RandomDag(60, 2.0, 3);
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, GrowFromEmpty) {
  DynamicClosure closure;
  auto root = closure.AddLeafUnder(kNoNode);
  ASSERT_TRUE(root.ok());
  auto a = closure.AddLeafUnder(root.value());
  auto b = closure.AddLeafUnder(root.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = closure.AddLeafUnder(a.value());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(closure.Reaches(root.value(), c.value()));
  EXPECT_TRUE(closure.Reaches(a.value(), c.value()));
  EXPECT_FALSE(closure.Reaches(b.value(), c.value()));
  EXPECT_FALSE(closure.Reaches(c.value(), root.value()));
  ExpectConsistent(closure);
  // Leaf insertion under an existing parent must not renumber with the
  // default gap.
  EXPECT_EQ(closure.stats().renumbers, 0);
  // DefaultOptions' capacity: the root's hole took `a` and `b`, each new
  // leaf claiming up to a full reserve pool, so a third leaf renumbers.
  auto d = closure.AddLeafUnder(root.value());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(closure.stats().renumbers, 1);
  EXPECT_TRUE(closure.Reaches(root.value(), d.value()));
  EXPECT_FALSE(closure.Reaches(a.value(), d.value()));
  EXPECT_FALSE(closure.Reaches(d.value(), c.value()));
  ExpectConsistent(closure);
}

TEST(DynamicClosureTest, PaperFigure41GapExample) {
  // Figure 4.1: with gap 10, adding x under b gets the midpoint number and
  // the interval [floor+1, mid]; no other node's labels change.
  Digraph graph = GraphFromArcs(2, {{0, 1}});  // b=0 with child 1.
  ClosureOptions options;
  options.labeling.gap = 10;
  auto closure = DynamicClosure::Build(graph, options);
  ASSERT_TRUE(closure.ok());
  // Postorder: node1=10, node0=20.
  EXPECT_EQ(closure->labels().postorder[1], 10);
  EXPECT_EQ(closure->labels().postorder[0], 20);
  auto x = closure->AddLeafUnder(0);
  ASSERT_TRUE(x.ok());
  // Hole below 20 is (10, 20): midpoint 15, interval [11, 15].
  EXPECT_EQ(closure->labels().postorder[x.value()], 15);
  EXPECT_EQ(closure->labels().tree_interval[x.value()], (Interval{11, 15}));
  // Untouched labels.
  EXPECT_EQ(closure->labels().postorder[1], 10);
  EXPECT_EQ(closure->labels().postorder[0], 20);
  EXPECT_EQ(closure->stats().renumbers, 0);
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, AddLeafRenumbersWhenHoleExhausted) {
  ClosureOptions options;
  options.labeling.gap = 2;
  options.labeling.reserve = 0;
  DynamicClosure closure(options);
  auto root = closure.AddLeafUnder(kNoNode);
  ASSERT_TRUE(root.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(closure.AddLeafUnder(root.value()).ok());
  }
  EXPECT_GT(closure.stats().renumbers, 0);
  ExpectConsistent(closure);
}

TEST(DynamicClosureTest, GapOneAlwaysRenumbersButStaysCorrect) {
  ClosureOptions options;
  options.labeling.gap = 1;
  DynamicClosure closure(options);
  auto root = closure.AddLeafUnder(kNoNode);
  ASSERT_TRUE(root.ok());
  NodeId tip = root.value();
  for (int i = 0; i < 6; ++i) {
    auto leaf = closure.AddLeafUnder(tip);
    ASSERT_TRUE(leaf.ok());
    tip = leaf.value();
  }
  EXPECT_EQ(closure.stats().renumbers, 6);
  ExpectConsistent(closure);
}

TEST(DynamicClosureTest, AddArcPropagatesToAllPredecessors) {
  // Two chains 0->1->2 and 3->4->5; connect 2 -> 3: everything upstream
  // of 2 must now reach the second chain.
  Digraph graph = GraphFromArcs(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_FALSE(closure->Reaches(0, 5));
  ASSERT_TRUE(closure->AddArc(2, 3).ok());
  EXPECT_TRUE(closure->Reaches(0, 5));
  EXPECT_TRUE(closure->Reaches(2, 4));
  EXPECT_FALSE(closure->Reaches(3, 0));
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, AddArcRejectsCyclesAndDuplicates) {
  Digraph graph = GraphFromArcs(3, {{0, 1}, {1, 2}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->AddArc(2, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(closure->AddArc(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(closure->AddArc(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(closure->AddArc(0, 9).code(), StatusCode::kInvalidArgument);
  // Redundant (already implied) arc is fine.
  EXPECT_TRUE(closure->AddArc(0, 2).ok());
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, AddArcPropagationStopsAtSubsumption) {
  // Chain 0->1->...->29 plus a shortcut 0->29 to an already-reachable
  // node: no interval changes anywhere, so only node 0 is visited.
  Digraph graph(30);
  for (NodeId v = 0; v + 1 < 30; ++v) {
    ASSERT_TRUE(graph.AddArc(v, v + 1).ok());
  }
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  const int64_t before = closure->stats().propagation_node_visits;
  ASSERT_TRUE(closure->AddArc(0, 29).ok());
  EXPECT_EQ(closure->stats().propagation_node_visits, before + 1);
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RefineAboveIsConstantTimeWhenCovered) {
  // e -> h and x -> h; refine z between {e, x} and h (the paper's
  // Figure 4.2 scenario).
  Digraph graph = GraphFromArcs(4, {{0, 1}, {1, 3}, {2, 3}});  // e=1? no:
  // 0 -> 1 (a chain head), arcs (1,3) and (2,3): e=1, x=2, h=3.
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  const int64_t visits_before = closure->stats().propagation_node_visits;
  auto z = closure->RefineAbove(3, {1, 2});
  ASSERT_TRUE(z.ok()) << z.status().ToString();
  // Both parents already reached h: constant time, no flood.
  EXPECT_EQ(closure->stats().propagation_node_visits, visits_before);
  EXPECT_TRUE(closure->Reaches(1, z.value()));
  EXPECT_TRUE(closure->Reaches(2, z.value()));
  EXPECT_TRUE(closure->Reaches(0, z.value()));  // Through e.
  EXPECT_TRUE(closure->Reaches(z.value(), 3));
  EXPECT_FALSE(closure->Reaches(3, z.value()));
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RefineAboveEnforcesSoundnessPrecondition) {
  Digraph graph = GraphFromArcs(3, {{0, 2}, {1, 2}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  // Leaving out predecessor 1 would let it claim the new node falsely.
  EXPECT_EQ(closure->RefineAbove(2, {0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(closure->RefineAbove(2, {0, 1}).ok());
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RefineAboveExhaustsReservePool) {
  Digraph graph = GraphFromArcs(2, {{0, 1}});
  ClosureOptions options;
  options.labeling.gap = 8;
  options.labeling.reserve = 2;
  auto closure = DynamicClosure::Build(graph, options);
  ASSERT_TRUE(closure.ok());
  auto z1 = closure->RefineAbove(1, {0});
  ASSERT_TRUE(z1.ok());
  // The second refinement must name z1 as a parent (it now precedes 1).
  auto z2 = closure->RefineAbove(1, {0, z1.value()});
  ASSERT_TRUE(z2.ok()) << z2.status().ToString();
  auto z3 = closure->RefineAbove(1, {0, z1.value(), z2.value()});
  EXPECT_EQ(z3.status().code(), StatusCode::kFailedPrecondition);
  ExpectConsistent(closure.value());

  // DefaultOptions' capacity: reserve 16 is 16 refinements per node.
  auto defaults = DynamicClosure::Build(graph);
  ASSERT_TRUE(defaults.ok());
  for (int i = 0; i < 16; ++i) {
    auto z = defaults->RefineAbove(1, defaults->graph().InNeighbors(1));
    ASSERT_TRUE(z.ok()) << "refinement " << i << ": "
                        << z.status().ToString();
  }
  EXPECT_EQ(defaults->RefineAbove(1, defaults->graph().InNeighbors(1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(defaults->stats().renumbers, 0);
  ExpectConsistent(defaults.value());
}

TEST(DynamicClosureTest, RefineAbovePropagatesToNewAncestors) {
  // Parent 4 does not reach child 2 yet; refinement must update it.
  Digraph graph = GraphFromArcs(5, {{0, 2}, {1, 2}, {3, 4}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  auto z = closure->RefineAbove(2, {0, 1, 4});
  ASSERT_TRUE(z.ok());
  EXPECT_TRUE(closure->Reaches(4, 2));
  EXPECT_TRUE(closure->Reaches(3, 2));  // Through 4.
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RemoveNonTreeArc) {
  Digraph graph = GraphFromArcs(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  // Remove whichever arc into 3 is not the tree arc.
  const NodeId tree_parent = closure->TreeParent(3);
  const NodeId other = tree_parent == 1 ? 2 : 1;
  ASSERT_TRUE(closure->RemoveArc(other, 3).ok());
  EXPECT_FALSE(closure->Reaches(other, 3));
  EXPECT_TRUE(closure->Reaches(tree_parent, 3));
  EXPECT_TRUE(closure->Reaches(0, 3));
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RemoveTreeArcDetachesSubtree) {
  // Chain 0->1->2 with extra arc 3->1: removing the tree arc (0,1) keeps
  // 1 reachable from 3 only.
  Digraph graph = GraphFromArcs(4, {{0, 1}, {1, 2}, {3, 1}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  const NodeId tree_parent = closure->TreeParent(1);
  ASSERT_TRUE(closure->RemoveArc(tree_parent, 1).ok());
  const NodeId remaining = tree_parent == 0 ? 3 : 0;
  EXPECT_FALSE(closure->Reaches(tree_parent, 1));
  EXPECT_FALSE(closure->Reaches(tree_parent, 2));
  EXPECT_TRUE(closure->Reaches(remaining, 1));
  EXPECT_TRUE(closure->Reaches(remaining, 2));
  ExpectConsistent(closure.value());
}

TEST(DynamicClosureTest, RemoveArcErrors) {
  Digraph graph = GraphFromArcs(2, {{0, 1}});
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->RemoveArc(1, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(closure->RemoveArc(0, 7).code(), StatusCode::kInvalidArgument);
}

TEST(DynamicClosureTest, ReoptimizeRestoresOptimalStorage) {
  Digraph graph = RandomDag(80, 2.0, 17);
  auto dynamic = DynamicClosure::Build(graph);
  ASSERT_TRUE(dynamic.ok());
  // Degrade the cover with a burst of updates.
  Random rng(5);
  for (int i = 0; i < 40; ++i) {
    const NodeId parent = static_cast<NodeId>(
        rng.Uniform(static_cast<uint64_t>(dynamic->NumNodes())));
    ASSERT_TRUE(dynamic->AddLeafUnder(parent).ok());
  }
  const int64_t degraded = dynamic->TotalIntervals();
  dynamic->Reoptimize();
  EXPECT_LE(dynamic->TotalIntervals(), degraded);
  ExpectConsistent(dynamic.value());
}

// ---------------------------------------------------------------------------
// Randomized operation soak: every mutation keeps the index equivalent to
// ground-truth DFS reachability on the evolving graph.
// ---------------------------------------------------------------------------

struct SoakParam {
  uint64_t seed;
  Label gap;
  Label reserve;
};

class DynamicSoakTest : public ::testing::TestWithParam<SoakParam> {};

TEST_P(DynamicSoakTest, RandomOperationSequenceStaysConsistent) {
  const SoakParam& param = GetParam();
  Random rng(param.seed);
  ClosureOptions options;
  options.labeling.gap = param.gap;
  options.labeling.reserve = param.reserve;
  DynamicClosure closure(options);

  // Seed a few roots.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(closure.AddLeafUnder(kNoNode).ok());
  }

  for (int step = 0; step < 120; ++step) {
    const NodeId n = closure.NumNodes();
    const uint64_t op = rng.Uniform(10);
    if (op < 4) {  // Add a leaf.
      const NodeId parent =
          rng.Uniform(5) == 0
              ? kNoNode
              : static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
      ASSERT_TRUE(closure.AddLeafUnder(parent).ok());
    } else if (op < 7) {  // Add a random arc (may be rejected).
      const NodeId a =
          static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
      const NodeId b =
          static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
      Status s = closure.AddArc(a, b);
      ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument ||
                  s.code() == StatusCode::kAlreadyExists)
          << s.ToString();
    } else if (op < 8) {  // Refine above a random child.
      const NodeId child =
          static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
      auto z = closure.RefineAbove(child, closure.graph().InNeighbors(child));
      ASSERT_TRUE(z.ok() || z.status().code() == StatusCode::kInvalidArgument ||
                  z.status().code() == StatusCode::kFailedPrecondition)
          << z.status().ToString();
    } else {  // Remove a random existing arc.
      auto arcs = closure.graph().Arcs();
      if (!arcs.empty()) {
        const auto& [a, b] = arcs[rng.Uniform(arcs.size())];
        ASSERT_TRUE(closure.RemoveArc(a, b).ok());
      }
    }
    if (step % 10 == 9) ExpectConsistent(closure);
  }
  ExpectConsistent(closure);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DynamicSoakTest,
    ::testing::Values(SoakParam{1, 64, 16}, SoakParam{2, 64, 16},
                      SoakParam{3, 64, 0}, SoakParam{4, 8, 3},
                      SoakParam{5, 4, 1}, SoakParam{6, 2, 0},
                      SoakParam{7, 1, 0}, SoakParam{8, 256, 64},
                      SoakParam{9, 16, 7}, SoakParam{10, 32, 8},
                      SoakParam{11, 128, 100}, SoakParam{12, 3, 2},
                      SoakParam{13, 64, 63}, SoakParam{14, 2, 1}),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_gap" +
             std::to_string(info.param.gap) + "_res" +
             std::to_string(info.param.reserve);
    });

// Near 2^27 apart, at most 32 nodes fit below the arena's 2^32 label
// limit.  New roots and tree-arc deletions number past the current
// maximum, so they soon reach the limit and must compact the numbering
// instead.  Every step checks that all labels stay arena labels and that
// the index, a delta snapshot over the previous one, and a full export
// all answer like DFS.
class LabelLimitTest : public ::testing::Test {
 protected:
  static constexpr Label kGap = (Label{1} << 27) - 3;  // 32 × gap < 2^32.
  static constexpr NodeId kMaxNodes = 32;

  void SetUp() override {
    ClosureOptions options = DynamicClosure::DefaultOptions();
    options.labeling.gap = kGap;
    // A path 0 -> 1 -> ... -> 9 plus two shortcuts.
    Digraph graph(10);
    for (NodeId v = 0; v + 1 < 10; ++v) ASSERT_TRUE(graph.AddArc(v, v + 1).ok());
    ASSERT_TRUE(graph.AddArc(0, 5).ok());
    ASSERT_TRUE(graph.AddArc(3, 9).ok());
    auto built = DynamicClosure::Build(graph, options);
    ASSERT_TRUE(built.ok());
    closure_ = std::move(built).value();
    base_ = closure_.ExportClosure();
    closure_.MarkClean();
  }

  void ExpectExact(const std::string& step) {
    const NodeLabels& labels = closure_.labels();
    for (NodeId v = 0; v < closure_.NumNodes(); ++v) {
      // A full reserve pool above each number must fit too: AddArc pads
      // propagated tree intervals with it.
      ASSERT_LT(labels.postorder[v] + labels.reserve, kArenaLabelLimit)
          << step << " node " << v;
      ASSERT_LT(labels.intervals[v].intervals().back().hi, kArenaLabelLimit)
          << step << " node " << v;
    }
    const CompressedClosure delta =
        CompressedClosure::WithDelta(base_, closure_.ExportDelta());
    const CompressedClosure full = closure_.ExportClosure();
    const ReachabilityMatrix truth(closure_.graph());
    for (NodeId u = 0; u < closure_.NumNodes(); ++u) {
      for (NodeId v = 0; v < closure_.NumNodes(); ++v) {
        const bool want = truth.Reaches(u, v);
        ASSERT_EQ(closure_.Reaches(u, v), want) << step << " " << u << "->" << v;
        ASSERT_EQ(delta.Reaches(u, v), want) << step << " delta " << u << "->" << v;
        ASSERT_EQ(full.Reaches(u, v), want) << step << " full " << u << "->" << v;
      }
    }
    // Alternate delta chains and fresh full bases.
    base_ = ++steps_ % 3 == 0 ? full : delta;
  }

  // Deletes the tree arc into the lowest-id node that has a tree parent.
  void RemoveSomeTreeArc() {
    for (NodeId v = 0; v < closure_.NumNodes(); ++v) {
      const NodeId parent = closure_.TreeParent(v);
      if (parent != kNoNode) {
        ASSERT_TRUE(closure_.RemoveArc(parent, v).ok());
        return;
      }
    }
    FAIL() << "no tree arc left";
  }

  DynamicClosure closure_;
  CompressedClosure base_;
  int steps_ = 0;
};

TEST_F(LabelLimitTest, TreeArcDeletionsAndNewRootsRenumberAtTheLimit) {
  // Tree-arc deletions move the numbering up while n stays at 10.
  const int64_t before_deletions = closure_.stats().renumbers;
  for (int i = 0; i < 8 && closure_.stats().renumbers == before_deletions;
       ++i) {
    RemoveSomeTreeArc();
    ExpectExact("deletion " + std::to_string(i));
  }
  ASSERT_GT(closure_.stats().renumbers, before_deletions)
      << "tree-arc deletions never reached the label limit";

  // One more deletion leaves the numbering above its compact form, so new
  // roots reach the limit before the node count does.
  RemoveSomeTreeArc();
  ExpectExact("drift");
  const int64_t before_roots = closure_.stats().renumbers;
  while (closure_.stats().renumbers == before_roots &&
         closure_.NumNodes() < kMaxNodes) {
    ASSERT_TRUE(closure_.AddLeafUnder(kNoNode).ok());
    ExpectExact("root " + std::to_string(closure_.NumNodes()));
  }
  EXPECT_GT(closure_.stats().renumbers, before_roots)
      << "new roots never reached the label limit";
}

TEST_F(LabelLimitTest, OverLimitInsertFailsWithoutChangingAnything) {
  while (closure_.NumNodes() < kMaxNodes) {
    ASSERT_TRUE(closure_.AddLeafUnder(kNoNode).ok());
  }
  // Two fresh roots a -> b, so b has a reserve pool and a parent list.
  const NodeId a = kMaxNodes - 2;
  const NodeId b = kMaxNodes - 1;
  ASSERT_TRUE(closure_.AddArc(a, b).ok());
  ExpectExact("full");
  const ReachabilityMatrix before(closure_.graph());
  const int64_t renumbers = closure_.stats().renumbers;

  EXPECT_EQ(closure_.AddLeafUnder(kNoNode).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(closure_.AddLeafUnder(a).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(closure_.RefineAbove(b, {a}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(closure_.NumNodes(), kMaxNodes);
  EXPECT_EQ(closure_.stats().renumbers, renumbers);
  EXPECT_EQ(closure_.DirtyCount(), 0);
  for (NodeId u = 0; u < kMaxNodes; ++u) {
    for (NodeId v = 0; v < kMaxNodes; ++v) {
      ASSERT_EQ(closure_.Reaches(u, v), before.Reaches(u, v))
          << u << "->" << v;
    }
  }
  ExpectExact("after rejected inserts");
}

TEST(DynamicClosureTest, SuccessorsMatchGroundTruthAfterUpdates) {
  Digraph graph = RandomDag(40, 2.0, 30);
  auto closure = DynamicClosure::Build(graph);
  ASSERT_TRUE(closure.ok());
  ASSERT_TRUE(closure->AddLeafUnder(5).ok());
  ASSERT_TRUE(closure->AddArc(7, 39).ok() ||
              closure->graph().HasArc(7, 39) || closure->Reaches(39, 7));
  ReachabilityMatrix matrix(closure->graph());
  for (NodeId u = 0; u < closure->NumNodes(); ++u) {
    std::vector<NodeId> got = closure->Successors(u);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, matrix.Successors(u)) << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// Leaf numbers against a scan of every assigned number.  AddLeafUnder reads
// its floor through the parent's directory handle; this history works the
// floor out from labels().postorder alone.  A handle that some update left
// stale (a deletion's re-append, a rebuild, a load, a move) shows up as a
// wrong leaf number or a wrong answer.
// ---------------------------------------------------------------------------

// Handles point into the closure's own directory, so a copy would share
// them with its source.
static_assert(!std::is_copy_constructible_v<DynamicClosure>);
static_assert(!std::is_copy_assignable_v<DynamicClosure>);
static_assert(std::is_move_constructible_v<DynamicClosure>);
static_assert(std::is_move_assignable_v<DynamicClosure>);

// What AddLeafUnder(parent) must do, from an O(n) scan of the labels.
struct LeafPlan {
  NodeId parent = kNoNode;
  Label at = 0;      // The parent's number; 0 for a new root.
  Label below = 0;   // Largest assigned number under `at`, or 0.
  Label above = -1;  // Smallest assigned number over `at`, or -1.
  Label floor = 0;
  bool renumbers = false;
  Label number = 0;  // The new node's number unless it renumbers.

  std::string ToString() const {
    return "parent " + std::to_string(parent) + " at " + std::to_string(at) +
           ", directory neighbours " + std::to_string(below) + " and " +
           (above < 0 ? std::string("none") : std::to_string(above)) +
           ", expected floor " + std::to_string(floor);
  }
};

LeafPlan PlanLeaf(const DynamicClosure& closure, NodeId parent) {
  const NodeLabels& labels = closure.labels();
  LeafPlan plan;
  plan.parent = parent;
  if (parent == kNoNode) {
    // One gap past the largest number, above that node's reserve pool.
    for (Label x : labels.postorder) plan.below = std::max(plan.below, x);
    plan.floor = plan.below + labels.reserve;
    plan.number = plan.below + labels.gap;
    plan.renumbers = plan.number + labels.reserve >= kArenaLabelLimit;
    return plan;
  }
  plan.at = labels.postorder[parent];
  for (Label x : labels.postorder) {
    if (x < plan.at) plan.below = std::max(plan.below, x);
    if (x > plan.at && (plan.above < 0 || x < plan.above)) plan.above = x;
  }
  // The floor rule: above the previous number's reserve pool and below
  // the parent's interval, then the midpoint of what is left.
  plan.floor = std::max(plan.below + labels.reserve,
                        labels.tree_interval[parent].lo - 1);
  plan.renumbers = plan.at - plan.floor < 2;
  plan.number = plan.floor + (plan.at - plan.floor) / 2;
  return plan;
}

// Checks Reaches, Successors and CountSuccessors from each of `nodes`
// against a DFS over the closure's own graph.
void ExpectAnswersMatchDfs(const DynamicClosure& closure,
                           const std::vector<NodeId>& nodes) {
  const Digraph& graph = closure.graph();
  for (NodeId u : nodes) {
    if (u == kNoNode) continue;
    std::vector<bool> seen(graph.NumNodes(), false);
    std::vector<NodeId> want;
    std::vector<NodeId> stack = {u};
    seen[u] = true;
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (NodeId y : graph.OutNeighbors(x)) {
        if (seen[y]) continue;
        seen[y] = true;
        want.push_back(y);
        stack.push_back(y);
      }
    }
    std::sort(want.begin(), want.end());
    std::vector<NodeId> got = closure.Successors(u);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "successors of " << u;
    ASSERT_EQ(closure.CountSuccessors(u), static_cast<int64_t>(want.size()))
        << "successor count of " << u;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(closure.Reaches(u, v), seen[v]) << u << "->" << v;
    }
  }
}

const DynamicClosure& View(const DynamicClosure& closure) { return closure; }
const DynamicClosure& View(const LoggedClosure& logged) {
  return logged.closure();
}

// Adds a leaf under `parent` through `writer` (a DynamicClosure or a
// LoggedClosure) and checks it against PlanLeaf.
template <typename Writer>
void AddPlannedLeaf(Writer& writer, NodeId parent) {
  const DynamicClosure& closure = View(writer);
  const LeafPlan plan = PlanLeaf(closure, parent);
  const int64_t renumbers = closure.stats().renumbers;
  auto leaf = writer.AddLeafUnder(parent);
  ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
  ASSERT_EQ(closure.stats().renumbers, renumbers + (plan.renumbers ? 1 : 0))
      << plan.ToString();
  if (!plan.renumbers) {
    ASSERT_EQ(closure.labels().postorder[*leaf], plan.number)
        << plan.ToString();
    ASSERT_EQ(closure.labels().tree_interval[*leaf],
              (Interval{plan.floor + 1, plan.number}))
        << plan.ToString();
  }
  ASSERT_NO_FATAL_FAILURE(ExpectAnswersMatchDfs(closure, {parent, *leaf}))
      << plan.ToString();
}

struct HistoryParam {
  uint64_t seed;
  Label gap;
  Label reserve;
};

class LeafNumberHistoryTest : public ::testing::TestWithParam<HistoryParam> {};

TEST_P(LeafNumberHistoryTest, LeafNumbersMatchAScanOfEveryNumber) {
  const HistoryParam& param = GetParam();
  Random rng(param.seed);
  ClosureOptions options;
  options.labeling.gap = param.gap;
  options.labeling.reserve = param.reserve;
  auto built = DynamicClosure::Build(RandomDag(30, 1.5, param.seed), options);
  ASSERT_TRUE(built.ok());
  DynamicClosure closure = std::move(built).value();
  const auto random_node = [&rng](const DynamicClosure& c) {
    return static_cast<NodeId>(
        rng.Uniform(static_cast<uint64_t>(c.NumNodes())));
  };
  // The newest refined node, or kNoNode once a Reoptimize has cleared
  // them all.  Renumber() needs them gone.  Leaves after a move go under
  // it first: a handle RefineAbove left unset would point into the
  // moved-from directory.
  NodeId newest_refined = kNoNode;
  int64_t reoptimizes = closure.stats().reoptimizes;
  const auto parent_after_move = [&](const DynamicClosure& c) {
    return newest_refined != kNoNode ? newest_refined : random_node(c);
  };
  // Leaves often go under the previous leaf's parent, so holes run out.
  NodeId last_parent = kNoNode;

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<NodeId> touched;
    const uint64_t op = rng.Uniform(100);
    if (op < 40) {  // A leaf under a random or the last parent, or a root.
      const uint64_t pick = rng.Uniform(8);
      const NodeId parent = pick == 0   ? kNoNode
                            : pick <= 3 ? last_parent
                                        : random_node(closure);
      ASSERT_NO_FATAL_FAILURE(AddPlannedLeaf(closure, parent));
      last_parent = parent;
    } else if (op < 50) {  // One refinement, or refinements until dry.
      const NodeId child = random_node(closure);
      const bool drain = rng.Uniform(3) == 0;
      touched.push_back(child);
      while (!closure.graph().InNeighbors(child).empty()) {
        auto z = closure.RefineAbove(child, closure.graph().InNeighbors(child));
        if (!z.ok()) {
          ASSERT_EQ(z.status().code(), StatusCode::kFailedPrecondition)
              << z.status().ToString();
          break;
        }
        newest_refined = *z;
        touched.push_back(*z);
        if (!drain) break;
      }
    } else if (op < 65) {  // An arc; cycles and duplicates are refused.
      const NodeId a = random_node(closure);
      const NodeId b = random_node(closure);
      const Status s = closure.AddArc(a, b);
      ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument ||
                  s.code() == StatusCode::kAlreadyExists)
          << s.ToString();
      touched = {a, b};
    } else if (op < 75) {  // A tree-arc or non-tree-arc deletion.
      std::vector<std::pair<NodeId, NodeId>> arcs;
      const bool tree = rng.Uniform(2) == 0;
      for (const auto& [a, b] : closure.graph().Arcs()) {
        if (closure.IsTreeArc(a, b) == tree) arcs.emplace_back(a, b);
      }
      if (arcs.empty()) continue;
      const auto [a, b] = arcs[rng.Uniform(arcs.size())];
      ASSERT_TRUE(closure.RemoveArc(a, b).ok());
      touched = {a, b};
      if (tree) {
        // Leaves under the detached subtree's root and one of its tree
        // children read the handles the deletion re-appended.
        ASSERT_NO_FATAL_FAILURE(AddPlannedLeaf(closure, b));
        for (NodeId v = 0; v < closure.NumNodes(); ++v) {
          if (closure.TreeParent(v) == b) {
            ASSERT_NO_FATAL_FAILURE(AddPlannedLeaf(closure, v));
            break;
          }
        }
      }
    } else if (op < 82) {  // Renumber, or Reoptimize.
      if (newest_refined != kNoNode || rng.Uniform(2) == 0) {
        closure.Reoptimize();
      } else {
        closure.Renumber();
      }
    } else if (op < 90) {  // A Save -> Load round trip over the live index.
      std::stringstream image;
      ASSERT_TRUE(closure.Save(image).ok());
      auto loaded = DynamicClosure::Load(image);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded->labels().postorder, closure.labels().postorder);
      closure = std::move(loaded).value();
    } else if (op < 96) {  // Writes through a LoggedClosure, then recovery.
      std::stringstream snapshot;
      std::stringstream log;
      ASSERT_TRUE(closure.Save(snapshot).ok());
      LoggedClosure logged(std::move(closure), &log);
      ASSERT_NO_FATAL_FAILURE(
          AddPlannedLeaf(logged, parent_after_move(logged.closure())));
      for (int k = 0; k < 3; ++k) {
        ASSERT_NO_FATAL_FAILURE(
            AddPlannedLeaf(logged, random_node(logged.closure())));
      }
      auto recovered = LoggedClosure::Recover(&snapshot, log);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_EQ(recovered->labels().postorder,
                logged.closure().labels().postorder);
      closure = std::move(recovered).value();
    } else {  // A move out, a leaf on the moved index, and a move back.
      DynamicClosure moved(std::move(closure));
      ASSERT_NO_FATAL_FAILURE(AddPlannedLeaf(moved, parent_after_move(moved)));
      closure = std::move(moved);
    }
    if (closure.stats().reoptimizes != reoptimizes) {
      newest_refined = kNoNode;
      reoptimizes = closure.stats().reoptimizes;
    }
    for (int k = 0; k < 4; ++k) touched.push_back(random_node(closure));
    ASSERT_NO_FATAL_FAILURE(ExpectAnswersMatchDfs(closure, touched));
  }
  // The history must have crossed the paths it is about.
  EXPECT_GT(closure.stats().renumbers, 0);
  EXPECT_GT(closure.stats().reoptimizes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LeafNumberHistoryTest,
    ::testing::Values(HistoryParam{1, 4, 1}, HistoryParam{2, 4, 1},
                      HistoryParam{3, 64, 16}, HistoryParam{4, 64, 16},
                      HistoryParam{5, 16, 3}, HistoryParam{6, 8, 0}),
    [](const ::testing::TestParamInfo<HistoryParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_gap" +
             std::to_string(info.param.gap) + "_res" +
             std::to_string(info.param.reserve);
    });

}  // namespace
}  // namespace trel

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "tests/test_util.h"

namespace trel {
namespace {

// Answers of a loaded snapshot must be identical to the original on every
// pair and on successor enumeration.
void ExpectEquivalent(const DynamicClosure& a, const DynamicClosure& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    EXPECT_EQ(a.Successors(u), b.Successors(u)) << "node " << u;
    EXPECT_EQ(a.TreeParent(u), b.TreeParent(u)) << "node " << u;
  }
  EXPECT_EQ(a.TotalIntervals(), b.TotalIntervals());
  EXPECT_EQ(a.stats().renumbers, b.stats().renumbers);
}

TEST(SnapshotTest, RoundTripStaticBuild) {
  Digraph graph = RandomDag(80, 2.0, 300);
  auto original = DynamicClosure::Build(graph);
  ASSERT_TRUE(original.ok());
  std::stringstream buffer;
  ASSERT_TRUE(original->Save(buffer).ok());
  auto loaded = DynamicClosure::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEquivalent(original.value(), loaded.value());
}

TEST(SnapshotTest, RoundTripAfterUpdatesAndRefinements) {
  Digraph graph = RandomDag(50, 2.0, 301);
  auto original = DynamicClosure::Build(graph);
  ASSERT_TRUE(original.ok());
  Random rng(4);
  for (int i = 0; i < 30; ++i) {
    const NodeId parent = static_cast<NodeId>(
        rng.Uniform(static_cast<uint64_t>(original->NumNodes())));
    ASSERT_TRUE(original->AddLeafUnder(parent).ok());
  }
  // A refinement (keeps refined-node state in the snapshot).
  (void)original->RefineAbove(10, original->graph().InNeighbors(10));
  (void)original->AddArc(3, 47);

  std::stringstream buffer;
  ASSERT_TRUE(original->Save(buffer).ok());
  auto loaded = DynamicClosure::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEquivalent(original.value(), loaded.value());
}

TEST(SnapshotTest, LoadedIndexRemainsUpdatable) {
  DynamicClosure original;
  auto root = original.AddLeafUnder(kNoNode);
  ASSERT_TRUE(root.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(original.AddLeafUnder(root.value()).ok());
  }

  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  auto loaded = DynamicClosure::Load(buffer);
  ASSERT_TRUE(loaded.ok());

  // Continue mutating the loaded copy and verify against ground truth.
  Random rng(9);
  for (int i = 0; i < 40; ++i) {
    const NodeId parent = static_cast<NodeId>(
        rng.Uniform(static_cast<uint64_t>(loaded->NumNodes())));
    ASSERT_TRUE(loaded->AddLeafUnder(parent).ok());
  }
  ReachabilityMatrix matrix(loaded->graph());
  for (NodeId u = 0; u < loaded->NumNodes(); ++u) {
    for (NodeId v = 0; v < loaded->NumNodes(); ++v) {
      ASSERT_EQ(loaded->Reaches(u, v), matrix.Reaches(u, v))
          << u << "->" << v;
    }
  }
}

TEST(SnapshotTest, RejectsGarbageAndTruncation) {
  {
    std::stringstream buffer;
    buffer << "definitely not a snapshot";
    EXPECT_FALSE(DynamicClosure::Load(buffer).ok());
  }
  {
    Digraph graph = RandomDag(20, 1.5, 302);
    auto original = DynamicClosure::Build(graph);
    ASSERT_TRUE(original.ok());
    std::stringstream buffer;
    ASSERT_TRUE(original->Save(buffer).ok());
    std::string bytes = buffer.str();
    for (size_t cut : {size_t{4}, size_t{20}, bytes.size() / 2,
                       bytes.size() - 3}) {
      std::stringstream truncated(bytes.substr(0, cut));
      EXPECT_FALSE(DynamicClosure::Load(truncated).ok()) << "cut=" << cut;
    }
  }
  {
    // One hostile value per range-checked field, patched into a Save()
    // image.  Header: magic, n, gap, reserve, strategy, num_arcs (eight
    // bytes each), then the arcs, then per node: postorder, lo, hi,
    // parent, ...
    Digraph graph = RandomDag(20, 1.5, 303);
    auto original = DynamicClosure::Build(graph);
    ASSERT_TRUE(original.ok());
    std::stringstream buffer;
    ASSERT_TRUE(original->Save(buffer).ok());
    const std::string bytes = buffer.str();
    const auto patched = [&bytes](size_t offset, int64_t value) {
      std::string copy = bytes;
      for (int i = 0; i < 8; ++i) {
        copy[offset + i] =
            static_cast<char>(static_cast<uint64_t>(value) >> (8 * i));
      }
      return copy;
    };
    int64_t num_arcs = 0;
    for (int i = 7; i >= 0; --i) {
      num_arcs = (num_arcs << 8) | static_cast<uint8_t>(bytes[40 + i]);
    }
    const size_t first_parent = 48 + 16 * static_cast<size_t>(num_arcs) + 24;
    const struct {
      const char* field;
      size_t offset;
      int64_t value;
    } cases[] = {
        {"node count wrapping negative", 8, int64_t{1} << 31},
        {"node count wrapping to the same size", 8, (int64_t{1} << 32) + 20},
        {"strategy past the last", 32, 4},
        {"negative strategy", 32, -1},
        {"tree parent past the last node", first_parent, 20},
        {"tree parent below kNoNode", first_parent, -2},
    };
    ASSERT_TRUE(DynamicClosure::Load(buffer).ok());  // The image itself loads.
    for (const auto& c : cases) {
      std::stringstream hostile(patched(c.offset, c.value));
      EXPECT_FALSE(DynamicClosure::Load(hostile).ok()) << c.field;
    }
  }
}

}  // namespace
}  // namespace trel

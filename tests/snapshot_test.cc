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
    // Node 0's record, then its first interval's endpoints.
    const size_t first_node = 48 + 16 * static_cast<size_t>(num_arcs);
    const size_t first_parent = first_node + 24;
    const size_t first_interval = first_node + 56;
    constexpr int64_t kPastArena = int64_t{1} << 32;
    const struct {
      const char* field;
      size_t offset;
      int64_t value;
    } cases[] = {
        {"node count wrapping negative", 8, int64_t{1} << 31},
        {"node count wrapping to the same size", 8, (int64_t{1} << 32) + 20},
        {"gap numbering past the 32-bit labels", 16, int64_t{1} << 28},
        {"strategy past the last", 32, 4},
        {"negative strategy", 32, -1},
        {"arc endpoint past the last node", 48, 20},
        {"arc endpoint wrapping to a node id", 48, (int64_t{1} << 32) + 1},
        {"negative postorder number", first_node, -5},
        {"duplicate postorder number (node 1's)", first_node,
         original->labels().postorder[1]},
        {"postorder number past the 32-bit labels", first_node, kPastArena},
        {"negative tree interval start", first_node + 8, -1},
        {"tree interval end past the 32-bit labels", first_node + 16,
         kPastArena},
        {"tree parent past the last node", first_parent, 20},
        {"tree parent below kNoNode", first_parent, -2},
        {"reserve pool past the reserve", first_node + 32, 17},
        {"negative reserve pool", first_node + 32, -1},
        {"negative interval start", first_interval, -1},
        {"interval end past the 32-bit labels", first_interval + 8,
         kPastArena},
    };
    ASSERT_TRUE(DynamicClosure::Load(buffer).ok());  // The image itself loads.
    ASSERT_GT(num_arcs, 0);
    ASSERT_GT(original->labels().intervals[0].size(), 0);
    for (const auto& c : cases) {
      std::stringstream hostile(patched(c.offset, c.value));
      EXPECT_FALSE(DynamicClosure::Load(hostile).ok()) << c.field;
    }
  }
  {
    // A header-only image claiming INT32_MAX nodes at gap 1, whose
    // numbering fits the 32-bit labels: nothing may be sized by the
    // claimed count before the records that back it are read.
    std::string header;
    for (const int64_t field :
         {int64_t{0x74726C736E617031}, int64_t{0x7FFFFFFF}, int64_t{1},
          int64_t{0}, int64_t{0}, int64_t{0}}) {
      for (int i = 0; i < 8; ++i) {
        header.push_back(
            static_cast<char>(static_cast<uint64_t>(field) >> (8 * i)));
      }
    }
    std::stringstream hostile(header);
    EXPECT_FALSE(DynamicClosure::Load(hostile).ok()) << "node count";
  }
}

}  // namespace
}  // namespace trel

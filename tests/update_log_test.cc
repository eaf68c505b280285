#include "storage/update_log.h"

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"

namespace trel {
namespace {

TEST(UpdateLogTest, OpRecordsRoundTrip) {
  std::stringstream log;
  const std::vector<UpdateOp> ops = {
      {UpdateOp::Kind::kAddLeaf, kNoNode, kNoNode, {}},
      {UpdateOp::Kind::kAddLeaf, 0, kNoNode, {}},
      {UpdateOp::Kind::kAddArc, 0, 1, {}},
      {UpdateOp::Kind::kRefine, kNoNode, 1, {0, 2}},
      {UpdateOp::Kind::kRemoveArc, 0, 1, {}},
      {UpdateOp::Kind::kReoptimize, kNoNode, kNoNode, {}},
  };
  for (const UpdateOp& op : ops) {
    ASSERT_TRUE(AppendUpdateOp(log, op).ok());
  }
  auto read = ReadUpdateLog(log);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), ops);
}

TEST(UpdateLogTest, RejectsTornRecords) {
  std::stringstream log;
  ASSERT_TRUE(
      AppendUpdateOp(log, {UpdateOp::Kind::kAddArc, 0, 1, {}}).ok());
  std::string bytes = log.str();
  {
    std::stringstream torn(bytes.substr(0, bytes.size() - 2));
    EXPECT_FALSE(ReadUpdateLog(torn).ok());
  }
  {
    std::stringstream corrupt(std::string("\x77") + bytes);
    EXPECT_FALSE(ReadUpdateLog(corrupt).ok());
  }
  // One hostile value or tear per field of a record: kind (1 byte), a, b
  // and parent_count (4 bytes each), then the parent list.
  std::stringstream refine;
  ASSERT_TRUE(
      AppendUpdateOp(refine, {UpdateOp::Kind::kRefine, 0, 5, {1, 2}}).ok());
  const std::string record = refine.str();
  const auto patched = [&record](size_t offset, int32_t value) {
    std::string copy = record;
    for (int i = 0; i < 4; ++i) {
      copy[offset + i] =
          static_cast<char>(static_cast<uint32_t>(value) >> (8 * i));
    }
    return copy;
  };
  const struct {
    const char* field;
    std::string bytes;
  } cases[] = {
      {"kind 0", std::string(1, '\0') + record.substr(1)},
      {"kind past the last", std::string(1, '\6') + record.substr(1)},
      {"torn a", record.substr(0, 3)},
      {"torn b", record.substr(0, 7)},
      // Must fail on the missing parents, not reserve 8 GB up front.
      {"parent_count INT32_MAX", patched(9, 0x7fffffff)},
      {"negative parent_count", patched(9, -1)},
      {"torn parent list", record.substr(0, record.size() - 2)},
  };
  {
    std::stringstream whole(record);
    ASSERT_TRUE(ReadUpdateLog(whole).ok());  // The record itself parses.
  }
  for (const auto& c : cases) {
    std::stringstream hostile(c.bytes);
    EXPECT_FALSE(ReadUpdateLog(hostile).ok()) << c.field;
  }
}

TEST(UpdateLogTest, RecoverFromLogAlone) {
  std::stringstream log;
  {
    LoggedClosure live(DynamicClosure(), &log);
    auto root = live.AddLeafUnder(kNoNode);
    ASSERT_TRUE(root.ok());
    auto a = live.AddLeafUnder(root.value());
    auto b = live.AddLeafUnder(root.value());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(live.AddArc(a.value(), b.value()).ok());
    // A failing op must not be logged.
    EXPECT_FALSE(live.AddArc(b.value(), a.value()).ok());  // Cycle.

    auto recovered = LoggedClosure::Recover(nullptr, log);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ(recovered->NumNodes(), live.closure().NumNodes());
    for (NodeId u = 0; u < recovered->NumNodes(); ++u) {
      EXPECT_EQ(recovered->Successors(u), live.closure().Successors(u));
    }
  }
}

TEST(UpdateLogTest, RecoverFromSnapshotPlusLogTail) {
  Digraph graph = RandomDag(40, 2.0, 500);
  auto built = DynamicClosure::Build(graph);
  ASSERT_TRUE(built.ok());

  // Snapshot, then keep updating with a log.
  std::stringstream snapshot;
  ASSERT_TRUE(built->Save(snapshot).ok());
  std::stringstream log;
  LoggedClosure live(std::move(built).value(), &log);
  Random rng(3);
  for (int i = 0; i < 25; ++i) {
    const NodeId parent = static_cast<NodeId>(
        rng.Uniform(static_cast<uint64_t>(live.closure().NumNodes())));
    ASSERT_TRUE(live.AddLeafUnder(parent).ok());
  }
  (void)live.RefineAbove(7, live.closure().graph().InNeighbors(7));
  ASSERT_TRUE(live.Reoptimize().ok());

  auto recovered = LoggedClosure::Recover(&snapshot, log);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->NumNodes(), live.closure().NumNodes());
  for (NodeId u = 0; u < recovered->NumNodes(); ++u) {
    EXPECT_EQ(recovered->Successors(u), live.closure().Successors(u))
        << "node " << u;
  }
  EXPECT_EQ(recovered->TotalIntervals(), live.closure().TotalIntervals());
}

}  // namespace
}  // namespace trel

// Delta snapshot publication: CompressedClosure::WithDelta overlays must
// be indistinguishable from from-scratch ExportClosure() snapshots on
// every query surface, across randomized interleaved update batches, and
// QueryService's full-vs-delta publish policy must follow its constants.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/compressed_closure.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/closure_store.h"
#include "storage/page_store.h"

namespace trel {
namespace {

// Asserts that `got` (typically an overlay chain) answers exactly like
// `want` (a from-scratch export of the same labeling): reachability,
// enumeration, counting, and the storage measure all agree.
void ExpectSameAnswers(const CompressedClosure& got,
                       const CompressedClosure& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.TotalIntervals(), want.TotalIntervals());
  for (NodeId u = 0; u < want.NumNodes(); ++u) {
    ASSERT_EQ(got.PostorderOf(u), want.PostorderOf(u)) << "node " << u;
    for (NodeId v = 0; v < want.NumNodes(); ++v) {
      ASSERT_EQ(got.Reaches(u, v), want.Reaches(u, v)) << u << "->" << v;
    }
    ASSERT_EQ(got.Successors(u), want.Successors(u)) << "node " << u;
    ASSERT_EQ(got.CountSuccessors(u), want.CountSuccessors(u)) << "node " << u;
    ASSERT_EQ(got.Predecessors(u), want.Predecessors(u)) << "node " << u;
  }
}

TEST(DeltaSnapshotTest, SingleDeltaMatchesFullExport) {
  auto dyn = DynamicClosure::Build(RandomDag(80, 2.0, 41));
  ASSERT_TRUE(dyn.ok());
  CompressedClosure base = dyn->ExportClosure();
  dyn->MarkClean();

  ASSERT_TRUE(dyn->AddLeafUnder(3).ok());
  ASSERT_TRUE(dyn->AddArc(0, 79).ok() || true);  // Cycle rejection is fine.
  EXPECT_GT(dyn->DirtyCount(), 0);

  ClosureDelta delta = dyn->ExportDelta();
  EXPECT_EQ(dyn->DirtyCount(), 0);  // Export drained the dirty set.
  CompressedClosure overlay = CompressedClosure::WithDelta(base, delta);
  ExpectSameAnswers(overlay, dyn->ExportClosure());
}

TEST(DeltaSnapshotTest, EmptyDeltaIsExact) {
  auto dyn = DynamicClosure::Build(RandomDag(50, 2.0, 42));
  ASSERT_TRUE(dyn.ok());
  CompressedClosure base = dyn->ExportClosure();
  dyn->MarkClean();
  ClosureDelta delta = dyn->ExportDelta();
  EXPECT_TRUE(delta.entries.empty());
  CompressedClosure overlay = CompressedClosure::WithDelta(base, delta);
  EXPECT_FALSE(overlay.IsOverlay());
  ExpectSameAnswers(overlay, base);
}

// The tentpole equivalence test: a long chain of WithDelta publishes over
// randomized interleaved AddArc / AddLeafUnder / RemoveArc batches must
// track a from-scratch export at every step, and ground truth every few
// batches.
TEST(DeltaSnapshotTest, RandomizedInterleavedBatchesMatchFullExport) {
  Random rng(123);
  DynamicClosure dyn;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dyn.AddLeafUnder(kNoNode).ok());
  }
  CompressedClosure snapshot = dyn.ExportClosure();
  dyn.MarkClean();

  for (int batch = 0; batch < 40; ++batch) {
    const int batch_size = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < batch_size; ++i) {
      const NodeId n = dyn.NumNodes();
      const uint64_t op = rng.Uniform(10);
      if (op < 4) {
        const NodeId parent =
            op == 0 ? kNoNode : static_cast<NodeId>(rng.Uniform(n));
        ASSERT_TRUE(dyn.AddLeafUnder(parent).ok());
      } else if (op < 8) {
        const NodeId a = static_cast<NodeId>(rng.Uniform(n));
        const NodeId b = static_cast<NodeId>(rng.Uniform(n));
        Status s = dyn.AddArc(a, b);
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument ||
                    s.code() == StatusCode::kAlreadyExists);
      } else {
        auto arcs = dyn.graph().Arcs();
        if (!arcs.empty()) {
          const auto& [a, b] = arcs[rng.Uniform(arcs.size())];
          ASSERT_TRUE(dyn.RemoveArc(a, b).ok());
        }
      }
    }
    ClosureDelta delta = dyn.ExportDelta();
    snapshot = CompressedClosure::WithDelta(snapshot, delta);
    ExpectSameAnswers(snapshot, dyn.ExportClosure());
    if (batch % 8 == 7) {
      ReachabilityMatrix truth(dyn.graph());
      for (NodeId u = 0; u < dyn.NumNodes(); ++u) {
        for (NodeId v = 0; v < dyn.NumNodes(); ++v) {
          ASSERT_EQ(snapshot.Reaches(u, v), truth.Reaches(u, v))
              << u << "->" << v;
        }
      }
    }
  }
}

TEST(DeltaSnapshotTest, OverlaySharesBaseStorageAndLeavesBaseUntouched) {
  auto dyn = DynamicClosure::Build(RandomDag(200, 2.0, 43));
  ASSERT_TRUE(dyn.ok());
  CompressedClosure base = dyn->ExportClosure();
  dyn->MarkClean();
  const int64_t base_intervals = base.TotalIntervals();
  const bool base_reach = base.Reaches(0, 199);

  ASSERT_TRUE(dyn->AddLeafUnder(0).ok());
  ClosureDelta delta = dyn->ExportDelta();
  ASSERT_FALSE(delta.entries.empty());
  ASSERT_LT(static_cast<NodeId>(delta.entries.size()), 200);

  CompressedClosure overlay = CompressedClosure::WithDelta(base, delta);
  EXPECT_TRUE(overlay.IsOverlay());
  EXPECT_EQ(overlay.OverlayNodeCount(),
            static_cast<int64_t>(delta.entries.size()));
  // The base layer is shared by reference, not copied.
  EXPECT_EQ(&overlay.arena(), &base.arena());
  EXPECT_EQ(overlay.ArenaByteSize(), base.ArenaByteSize());
  EXPECT_EQ(overlay.NumNodes(), 201);

  // Chained deltas flatten onto the same base.
  ASSERT_TRUE(dyn->AddLeafUnder(1).ok());
  CompressedClosure chained =
      CompressedClosure::WithDelta(overlay, dyn->ExportDelta());
  EXPECT_EQ(&chained.arena(), &base.arena());
  EXPECT_GE(chained.OverlayNodeCount(), overlay.OverlayNodeCount());
  ExpectSameAnswers(chained, dyn->ExportClosure());

  // The base snapshot is immutable: earlier answers did not move.
  EXPECT_EQ(base.NumNodes(), 200);
  EXPECT_EQ(base.TotalIntervals(), base_intervals);
  EXPECT_EQ(base.Reaches(0, 199), base_reach);
}

// RemoveArc re-propagates every label but dirties only the nodes it
// renumbers or whose interval set it changes; that delta must still
// reconstruct exact answers.
TEST(DeltaSnapshotTest, RemovalBatchesStayExactThroughDeltaChain) {
  auto dyn = DynamicClosure::Build(RandomDag(60, 2.5, 44));
  ASSERT_TRUE(dyn.ok());
  CompressedClosure snapshot = dyn->ExportClosure();
  dyn->MarkClean();

  Random rng(7);
  for (int round = 0; round < 10; ++round) {
    auto arcs = dyn->graph().Arcs();
    ASSERT_FALSE(arcs.empty());
    const auto& [a, b] = arcs[rng.Uniform(arcs.size())];
    ASSERT_TRUE(dyn->RemoveArc(a, b).ok());
    snapshot = CompressedClosure::WithDelta(snapshot, dyn->ExportDelta());
    ExpectSameAnswers(snapshot, dyn->ExportClosure());
  }
}

// --- QueryService publish policy -------------------------------------------

// The live snapshot's base arena against the writer's from-labels
// export, array by array and byte for byte: a folded full publish must
// be exactly the arena a rebuild would have made.
void ExpectLiveArenaMatchesExport(QueryService& service) {
  CompressedClosure want;
  ASSERT_TRUE(service
                  .Apply([&want](DynamicClosure& dynamic) {
                    want = dynamic.ExportClosure();
                    return Status::Ok();
                  })
                  .ok());
  const auto snapshot = service.Snapshot();
  ASSERT_FALSE(snapshot->closure.IsOverlay());
  const LabelArena& a = snapshot->closure.arena();
  const LabelArena& b = want.arena();
  EXPECT_EQ(a.filter_shift, b.filter_shift);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  ASSERT_EQ(a.extras.size(), b.extras.size());
  ASSERT_GT(a.slots.size(), 0u);
  EXPECT_EQ(std::memcmp(a.slots.data(), b.slots.data(),
                        a.slots.size() * sizeof(LabelArena::NodeSlot)),
            0);
  if (!b.extras.empty()) {
    EXPECT_EQ(std::memcmp(a.extras.data(), b.extras.data(),
                          a.extras.size() * sizeof(ArenaInterval)),
              0);
  }
  EXPECT_EQ(a.filters, b.filters);
  EXPECT_EQ(a.dir_labels, b.dir_labels);
  EXPECT_EQ(a.dir_nodes, b.dir_nodes);
  EXPECT_EQ(snapshot->closure.TotalIntervals(), want.TotalIntervals());
}

TEST(DeltaSnapshotTest, ServiceForcesFullExportEveryK) {
  constexpr int kK = QueryService::kMaxDeltaPublishes;
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(300, 2.0, 45)).ok());

  // Construction and Load are new-lineage publishes: always full, and
  // rebuilt, since there is no base of their lineage to fold into.
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.publishes_full, 2);
  EXPECT_EQ(view.publishes_delta, 0);
  EXPECT_EQ(view.publishes_folded, 0);

  // Of the explicit publishes, every (K+1)-th (the one after K
  // consecutive deltas) is forced full: publishes K+1 and 2K+2.  Both
  // fold.  The last two are deltas again.
  const int publishes = 2 * (kK + 1) + 2;
  Random rng(11);
  for (int i = 0; i < publishes; ++i) {
    ASSERT_TRUE(
        service.AddLeafUnder(static_cast<NodeId>(rng.Uniform(300))).ok());
    service.Publish();
    ASSERT_EQ(service.Snapshot()->delta_publish, (i + 1) % (kK + 1) != 0)
        << "publish " << i + 1;
    if (i == 2 * kK + 1) {
      // Publish 2K+2 folded its deltas into the previous base arena.
      ASSERT_NO_FATAL_FAILURE(ExpectLiveArenaMatchesExport(service));
    }
  }
  view = service.Metrics();
  EXPECT_EQ(view.publishes_full, 4);
  EXPECT_EQ(view.publishes_delta, publishes - 2);
  EXPECT_EQ(view.publishes, publishes + 2);
  EXPECT_EQ(view.publishes_folded, 2);
  EXPECT_GT(view.delta_nodes_total, 0);
  int64_t histogram_total = 0;
  for (int64_t bucket : view.delta_nodes_histogram) histogram_total += bucket;
  EXPECT_EQ(histogram_total, view.publishes_delta);

  // The live snapshot (the last publish) rode the delta path and says so.
  auto snapshot = service.Snapshot();
  EXPECT_TRUE(snapshot->delta_publish);
  EXPECT_GT(snapshot->delta_entries, 0);
  EXPECT_GT(view.snapshot_overlay_nodes, 0);

  // Delta snapshots answer exactly like the ground truth of the live
  // graph.
  Digraph graph;
  ASSERT_TRUE(service
                  .Apply([&graph](DynamicClosure& dynamic) {
                    graph = dynamic.graph();
                    return Status::Ok();
                  })
                  .ok());
  ReachabilityMatrix truth(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(snapshot->Reaches(u, v), truth.Reaches(u, v))
          << u << "->" << v;
    }
  }
}

TEST(DeltaSnapshotTest, ServiceFallsBackToFullWhenMostNodesDirty) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(40, 2.0, 47)).ok());
  // Renumbering relabels (and dirties) every node, pushing the dirty
  // fraction past the threshold: the publish must go full, and rebuild
  // the arena rather than fold.
  ASSERT_TRUE(service
                  .Apply([](DynamicClosure& dynamic) {
                    dynamic.Renumber();
                    return Status::Ok();
                  })
                  .ok());
  service.Publish();
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.publishes_full, 3);
  EXPECT_EQ(view.publishes_delta, 0);
  EXPECT_EQ(view.publishes_folded, 0);
}

// A non-tree deletion dirties only the nodes whose interval sets it
// changes, so it publishes as a small delta rather than a full export.
TEST(DeltaSnapshotTest, NonTreeRemovalPublishesPreciseDelta) {
  const NodeId n = 2000;
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(n, 3.0, 51)).ok());
  Digraph graph;
  int64_t dirty = -1;
  ASSERT_TRUE(service
                  .Apply([&](DynamicClosure& dynamic) {
                    // The first non-tree arc whose removal cuts a path.
                    for (const auto& [a, b] : dynamic.graph().Arcs()) {
                      if (dynamic.IsTreeArc(a, b)) continue;
                      Digraph without = dynamic.graph();
                      TREL_RETURN_IF_ERROR(without.RemoveArc(a, b));
                      if (DfsReaches(without, a, b)) continue;
                      TREL_RETURN_IF_ERROR(dynamic.RemoveArc(a, b));
                      graph = dynamic.graph();
                      dirty = dynamic.DirtyCount();
                      return Status::Ok();
                    }
                    return NotFoundError("no path-cutting non-tree arc");
                  })
                  .ok());
  EXPECT_GT(dirty, 0);
  service.Publish();
  auto snapshot = service.Snapshot();
  ASSERT_TRUE(snapshot->delta_publish);
  EXPECT_EQ(snapshot->delta_entries, dirty);
  EXPECT_LT(snapshot->delta_entries, n);
  for (NodeId u = 0; u < n; ++u) {
    std::vector<bool> reached(n, false);
    for (NodeId v : DfsReachableSet(graph, u)) reached[v] = true;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(snapshot->Reaches(u, v), reached[v]) << u << "->" << v;
    }
  }
}

TEST(DeltaSnapshotTest, ServiceLoadForcesFullPublish) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(100, 2.0, 48)).ok());
  ASSERT_TRUE(service.AddLeafUnder(0).ok());
  service.Publish();
  EXPECT_TRUE(service.Snapshot()->delta_publish);

  // A new index lineage can never ride on the previous snapshot.
  ASSERT_TRUE(service.Load(RandomDag(120, 2.0, 49)).ok());
  EXPECT_FALSE(service.Snapshot()->delta_publish);
  EXPECT_EQ(service.Snapshot()->NumNodes(), 120);
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.snapshot_overlay_nodes, 0);
}

// The service publishes arena-only closures, full and delta alike; each
// must persist through the on-disk interval store and answer like DFS.
TEST(DeltaSnapshotTest, PublishedSnapshotsPersistThroughIntervalStore) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(120, 2.0, 51)).ok());

  const auto expect_persists = [&service](const std::string& file) {
    Digraph graph;
    ASSERT_TRUE(service
                    .Apply([&graph](DynamicClosure& dynamic) {
                      graph = dynamic.graph();
                      return Status::Ok();
                    })
                    .ok());
    const auto snapshot = service.Snapshot();
    auto store = PageStore::Open(::testing::TempDir() + "/" + file, 512);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(IntervalStore::Write(snapshot->closure, *store).ok());
    BufferPool pool(&*store, 16);
    auto on_disk = IntervalStore::Open(&pool);
    ASSERT_TRUE(on_disk.ok());
    ASSERT_EQ(on_disk->NumNodes(), graph.NumNodes());
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) {
        auto got = on_disk->Reaches(u, v);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, DfsReaches(graph, u, v)) << file << " " << u << "->"
                                                 << v;
      }
    }
  };
  expect_persists("published_full.db");
  ASSERT_FALSE(service.Snapshot()->delta_publish);

  const StatusOr<NodeId> leaf = service.AddLeafUnder(7);
  ASSERT_TRUE(leaf.ok());
  // The first arc the index accepts (cycles and duplicates are refused).
  bool added = false;
  for (NodeId to = 0; to < 120 && !added; ++to) {
    added = service.AddArc(*leaf, to).ok();
  }
  ASSERT_TRUE(added);
  service.Publish();
  ASSERT_TRUE(service.Snapshot()->delta_publish);
  ASSERT_TRUE(service.Snapshot()->closure.IsOverlay());
  expect_persists("published_delta.db");
}

}  // namespace
}  // namespace trel

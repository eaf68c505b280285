// QueryService: snapshot semantics, batch fan-out, and the concurrent
// reader/writer contract, plus the PublishedPtr reader slots under it.
// The concurrency tests here are TSan targets run by tools/ci.sh.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "service/published_ptr.h"
#include "service/query_service.h"

namespace trel {
namespace {

ServiceOptions SmallBatchOptions() {
  ServiceOptions options;
  options.num_workers = 3;
  options.min_parallel_batch = 8;  // Force the parallel path in tests.
  return options;
}

TEST(QueryServiceTest, EmptyServiceAnswersNothing) {
  QueryService service;
  EXPECT_EQ(service.Snapshot()->epoch, 0u);
  EXPECT_EQ(service.Snapshot()->NumNodes(), 0);
  EXPECT_FALSE(service.Reaches(0, 0));
  EXPECT_TRUE(service.Successors(0).empty());
}

TEST(QueryServiceTest, LoadedSnapshotMatchesGroundTruth) {
  Digraph graph = RandomDag(120, 2.5, 77);
  ReachabilityMatrix matrix(graph);
  QueryService service;
  ASSERT_TRUE(service.Load(graph).ok());
  auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot->epoch, 1u);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(snapshot->Reaches(u, v), matrix.Reaches(u, v))
          << u << "->" << v;
    }
    std::vector<NodeId> successors = snapshot->Successors(u);
    std::sort(successors.begin(), successors.end());
    ASSERT_EQ(successors, matrix.Successors(u)) << "node " << u;
  }
  // Publication stats came along.
  EXPECT_EQ(snapshot->stats.num_nodes, graph.NumNodes());
  EXPECT_EQ(snapshot->stats.total_intervals,
            snapshot->closure.TotalIntervals());
}

TEST(QueryServiceTest, LoadRejectsCyclicGraph) {
  Digraph graph(2);
  ASSERT_TRUE(graph.AddArc(0, 1).ok());
  ASSERT_TRUE(graph.AddArc(1, 0).ok());
  QueryService service;
  EXPECT_FALSE(service.Load(graph).ok());
  EXPECT_EQ(service.Snapshot()->epoch, 0u);  // Failed load publishes nothing.
}

TEST(QueryServiceTest, BatchReachesMatchesSingles) {
  Digraph graph = RandomDag(200, 2.0, 78);
  QueryService service(SmallBatchOptions());
  ASSERT_TRUE(service.Load(graph).ok());
  auto snapshot = service.Snapshot();

  Random rng(5);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 5000; ++i) {
    // Include out-of-range ids: snapshot semantics, not aborts.
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(220)),
                       static_cast<NodeId>(rng.Uniform(220)));
  }
  std::vector<uint8_t> got = service.BatchReaches(pairs);
  ASSERT_EQ(got.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i] != 0, snapshot->Reaches(pairs[i].first, pairs[i].second))
        << pairs[i].first << "->" << pairs[i].second;
  }
}

TEST(QueryServiceTest, BatchSuccessorsMatchesSingles) {
  Digraph graph = RandomDag(150, 2.0, 79);
  QueryService service(SmallBatchOptions());
  ASSERT_TRUE(service.Load(graph).ok());
  auto snapshot = service.Snapshot();

  std::vector<NodeId> nodes;
  for (NodeId u = -5; u < 160; ++u) nodes.push_back(u);
  std::vector<std::vector<NodeId>> got = service.BatchSuccessors(nodes);
  ASSERT_EQ(got.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(got[i], snapshot->Successors(nodes[i])) << "node " << nodes[i];
  }
}

TEST(QueryServiceTest, UpdatesInvisibleUntilPublish) {
  QueryService service;
  auto root = service.AddLeafUnder(kNoNode);
  ASSERT_TRUE(root.ok());
  auto child = service.AddLeafUnder(root.value());
  ASSERT_TRUE(child.ok());

  // Readers still see the empty epoch-0 snapshot.
  EXPECT_EQ(service.Snapshot()->NumNodes(), 0);
  EXPECT_FALSE(service.Reaches(root.value(), child.value()));

  auto old_snapshot = service.Snapshot();
  EXPECT_EQ(service.Publish(), 1u);
  EXPECT_TRUE(service.Reaches(root.value(), child.value()));
  EXPECT_FALSE(service.Reaches(child.value(), root.value()));

  // The superseded snapshot is still alive and unchanged for its holder.
  EXPECT_EQ(old_snapshot->epoch, 0u);
  EXPECT_EQ(old_snapshot->NumNodes(), 0);
}

TEST(QueryServiceTest, ApplyRunsCompoundUpdates) {
  Digraph graph = RandomDag(40, 1.5, 80);
  QueryService service;
  ASSERT_TRUE(service.Load(graph).ok());
  ASSERT_TRUE(service
                  .Apply([](DynamicClosure& dynamic) {
                    TREL_ASSIGN_OR_RETURN(NodeId leaf,
                                          dynamic.AddLeafUnder(0));
                    return dynamic.AddArc(1, leaf);
                  })
                  .ok());
  service.Publish();
  auto snapshot = service.Snapshot();
  const NodeId leaf = snapshot->NumNodes() - 1;
  EXPECT_TRUE(snapshot->Reaches(0, leaf));
  EXPECT_TRUE(snapshot->Reaches(1, leaf));
}

// Readers pin a snapshot only for the length of a call, so once no call
// is in flight a publish frees the snapshot it replaced; a counted handle
// from Snapshot() still keeps its snapshot alive.
TEST(QueryServiceTest, PublishFreesTheReplacedSnapshot) {
  ServiceOptions options;
  options.num_workers = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(50, 2.0, 96)).ok());
  std::thread([&service] {
    for (NodeId u = 0; u < 50; ++u) (void)service.Reaches(u, 49 - u);
    (void)service.Successors(0);
  }).join();
  (void)service.Reaches(0, 1);

  std::weak_ptr<const ClosureSnapshot> replaced = service.Snapshot();
  ASSERT_TRUE(service.AddLeafUnder(0).ok());
  service.Publish();
  EXPECT_TRUE(replaced.expired());

  std::shared_ptr<const ClosureSnapshot> held = service.Snapshot();
  replaced = held;
  service.Publish();
  EXPECT_FALSE(replaced.expired());
  held.reset();
  EXPECT_TRUE(replaced.expired());
}

// A value still pinned at the swap waits in the retired list until its
// reader is done and a reclaim pass finds no slot naming it.
TEST(PublishedPtrTest, PinnedValueOutlivesTheSwap) {
  PublishedPtr<int, 1> ptr;
  auto first = std::make_shared<const int>(1);
  const std::weak_ptr<const int> weak = first;
  ptr.Publish(std::move(first));
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const PublishedPtr<int, 1>::Pin pin(ptr);
    pin.Add(0, 2);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
    EXPECT_EQ(*pin, 1);
  });
  while (!pinned.load()) std::this_thread::yield();
  ptr.Publish(std::make_shared<const int>(2));
  EXPECT_FALSE(weak.expired());
  release.store(true);
  reader.join();
  EXPECT_FALSE(weak.expired());  // Retired; no pass has run since.
  ptr.Reclaim();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(*ptr.Load(), 2);
  ptr.Add(0);
  EXPECT_EQ(ptr.Sum(0), 3);  // The exited reader's count stays.
}

TEST(PublishedPtrDeathTest, NestedPinOnOneObjectAborts) {
  using IntPtr = PublishedPtr<int, 1>;
  IntPtr ptr;
  ptr.Publish(std::make_shared<const int>(1));
  const IntPtr::Pin outer(ptr);
  EXPECT_DEATH({ const IntPtr::Pin inner(ptr); }, "nested Pin");
}

TEST(QueryServiceTest, MetricsCountQueriesAndPublishes) {
  Digraph graph = RandomDag(50, 2.0, 81);
  QueryService service(SmallBatchOptions());
  ASSERT_TRUE(service.Load(graph).ok());
  (void)service.Reaches(0, 1);
  (void)service.BatchReaches({{0, 1}, {1, 2}, {2, 3}});
  (void)service.BatchSuccessors({0, 1});
  service.Publish();

  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.reach_queries, 4);
  EXPECT_EQ(view.successor_queries, 2);
  EXPECT_EQ(view.batches, 2);
  EXPECT_EQ(view.publishes, 3);  // Construction + Load + explicit Publish.
  EXPECT_EQ(view.current_epoch, 2u);
  EXPECT_EQ(view.snapshot_num_nodes, 50);
  EXPECT_GE(view.snapshot_age_seconds, 0.0);
  EXPECT_FALSE(view.ToString().empty());
  int64_t histogram_total = 0;
  for (int64_t bucket : view.batch_latency_histogram) {
    histogram_total += bucket;
  }
  EXPECT_EQ(histogram_total, view.batches);
}

// --- Admission control ------------------------------------------------------

// Clears TREL_INDEX for the enclosing scope so tests that exercise
// ServiceOptions::index_family directly aren't overridden when the whole
// binary reruns under tools/ci.sh --family-matrix.
class ScopedClearIndexEnv {
 public:
  ScopedClearIndexEnv() {
    const char* value = std::getenv("TREL_INDEX");
    if (value != nullptr) saved_ = value;
    unsetenv("TREL_INDEX");
  }
  ~ScopedClearIndexEnv() {
    if (saved_.has_value()) setenv("TREL_INDEX", saved_->c_str(), 1);
  }

 private:
  std::optional<std::string> saved_;
};

// Every forced index family (and auto) must serve the exact same answers
// through the full service stack — singles, batches, and after delta
// publishes that overlay the carried family index.  tools/ci.sh
// --family-matrix additionally reruns this whole binary under each
// TREL_INDEX value, which exercises the env override path.
TEST(QueryServiceFamilyTest, EveryFamilyServesExactAnswers) {
  ScopedClearIndexEnv clear_env;
  const Digraph graph = HubDag(40, 5, 36, 31);
  for (const IndexFamilySetting setting :
       {IndexFamilySetting::kAuto, IndexFamilySetting::kForceIntervals,
        IndexFamilySetting::kForceHop}) {
    ServiceOptions options = SmallBatchOptions();
    options.index_family = setting;
    QueryService service(options);
    ASSERT_TRUE(service.Load(graph).ok());

    ReachabilityMatrix truth(graph);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) pairs.emplace_back(u, v);
    }
    std::vector<uint8_t> batch = service.BatchReaches(pairs);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [u, v] = pairs[i];
      ASSERT_EQ(service.Reaches(u, v), truth.Reaches(u, v))
          << static_cast<int>(setting) << " " << u << "->" << v;
      ASSERT_EQ(batch[i] != 0, truth.Reaches(u, v))
          << static_cast<int>(setting) << " batch " << u << "->" << v;
    }

    // Mutate + publish (likely a delta): the carried family index must
    // keep agreeing with fresh ground truth.
    // Source 1 has no shortcut arc (only every 16th source does), so this
    // arc is guaranteed new.
    ASSERT_TRUE(service.AddArc(1, graph.NumNodes() - 1).ok());
    auto leaf = service.AddLeafUnder(1);
    ASSERT_TRUE(leaf.ok());
    service.Publish();
    const auto snapshot = service.Snapshot();
    for (NodeId u = 0; u < snapshot->NumNodes(); ++u) {
      for (NodeId v = 0; v < snapshot->NumNodes(); ++v) {
        const bool want = u == v || (u == 1 && v == graph.NumNodes() - 1) ||
                          (u < graph.NumNodes() && v < graph.NumNodes() &&
                           truth.Reaches(u, v)) ||
                          (v == *leaf && (u == 1 || truth.Reaches(u, 1)));
        ASSERT_EQ(snapshot->Reaches(u, v), want)
            << static_cast<int>(setting) << " post-delta " << u << "->" << v;
      }
    }
  }
}

TEST(QueryServiceFamilyTest, SelectionIsRecordedInMetrics) {
  ScopedClearIndexEnv clear_env;
  // Hub-dominated graph: auto must pick hop and say so in metrics.
  ServiceOptions options;
  options.num_workers = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Load(HubDag(400, 6, 300, 6)).ok());
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.index_family_name, "hop");
  EXPECT_EQ(view.index_family, static_cast<int>(IndexFamily::kHop));
  EXPECT_GT(view.family_label_bytes, 0);
  EXPECT_LT(view.family_label_bytes, view.snapshot_arena_bytes);
  EXPECT_GT(view.family_selects[static_cast<int>(IndexFamily::kHop)], 0);

  // Standard sparse random DAG, the Fig 3.6 crossing and a dense random
  // DAG: auto stays on intervals, so the family adds no bytes to the
  // arena.  The last two blow the labeling up without hubs.
  const std::pair<const char*, Digraph> hub_free[] = {
      {"random_sparse", RandomDag(2000, 4.0, 5)},
      {"bipartite", CompleteBipartite(60, 60)},
      {"random_dense", RandomDag(2000, 12.0, 6)}};
  for (const auto& [name, graph] : hub_free) {
    ASSERT_TRUE(service.Load(graph).ok()) << name;
    view = service.Metrics();
    EXPECT_EQ(view.index_family_name, "intervals") << name;
    EXPECT_EQ(view.family_label_bytes, view.snapshot_arena_bytes) << name;
  }
  EXPECT_GE(view.family_selects[static_cast<int>(IndexFamily::kIntervals)],
            3);
}

// --- Publish strategies -----------------------------------------------------

// Clears TREL_PUBLISH for the enclosing scope so tests that exercise
// ServiceOptions::publish_strategy directly aren't overridden when the
// whole binary reruns under tools/ci.sh --publish-matrix.
class ScopedClearPublishEnv {
 public:
  ScopedClearPublishEnv() {
    const char* value = std::getenv("TREL_PUBLISH");
    if (value != nullptr) saved_ = value;
    unsetenv("TREL_PUBLISH");
  }
  ~ScopedClearPublishEnv() {
    if (saved_.has_value()) setenv("TREL_PUBLISH", saved_->c_str(), 1);
  }

 private:
  std::optional<std::string> saved_;
};

TEST(QueryServicePublishStrategyTest, EnvParsingNeverFails) {
  EXPECT_EQ(ParsePublishStrategySetting(nullptr),
            PublishStrategySetting::kAuto);
  EXPECT_EQ(ParsePublishStrategySetting(""), PublishStrategySetting::kAuto);
  EXPECT_EQ(ParsePublishStrategySetting("auto"),
            PublishStrategySetting::kAuto);
  EXPECT_EQ(ParsePublishStrategySetting("bogus"),
            PublishStrategySetting::kAuto);
  EXPECT_EQ(ParsePublishStrategySetting("delta"),
            PublishStrategySetting::kForceDelta);
  EXPECT_EQ(ParsePublishStrategySetting("chain"),
            PublishStrategySetting::kForceChain);
  EXPECT_EQ(ParsePublishStrategySetting("optimal"),
            PublishStrategySetting::kForceOptimal);
}

// Every forced publish tier (and auto) must serve the exact same answers
// through the full service stack — singles, batches, and after a delta
// publish on top of whichever base the tier built.  tools/ci.sh
// --publish-matrix additionally reruns this whole binary under each
// TREL_PUBLISH value, which exercises the env override path.
TEST(QueryServicePublishStrategyTest, EveryStrategyServesExactAnswers) {
  ScopedClearPublishEnv clear_env;
  const Digraph graph = ChainedDag(6, 20, 2.5, 31);
  for (const PublishStrategySetting setting :
       {PublishStrategySetting::kAuto, PublishStrategySetting::kForceDelta,
        PublishStrategySetting::kForceChain,
        PublishStrategySetting::kForceOptimal}) {
    ServiceOptions options = SmallBatchOptions();
    options.publish_strategy = setting;
    QueryService service(options);
    ASSERT_TRUE(service.Load(graph).ok());

    ReachabilityMatrix truth(graph);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) pairs.emplace_back(u, v);
    }
    std::vector<uint8_t> batch = service.BatchReaches(pairs);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [u, v] = pairs[i];
      ASSERT_EQ(service.Reaches(u, v), truth.Reaches(u, v))
          << PublishStrategySettingName(setting) << " " << u << "->" << v;
      ASSERT_EQ(batch[i] != 0, truth.Reaches(u, v))
          << PublishStrategySettingName(setting) << " batch " << u << "->"
          << v;
    }

    // Mutate + publish (a delta under every setting — forcing never
    // changes the delta gate): answers must track fresh ground truth.
    // The shadow graph replays the same mutations for the oracle.
    Digraph mutated = graph;
    auto leaf = service.AddLeafUnder(2);
    ASSERT_TRUE(leaf.ok());
    ASSERT_EQ(mutated.AddNode(), *leaf);
    ASSERT_TRUE(mutated.AddArc(2, *leaf).ok());
    ASSERT_TRUE(service.AddArc(0, *leaf).ok());  // New by construction.
    ASSERT_TRUE(mutated.AddArc(0, *leaf).ok());
    service.Publish();
    const auto snapshot = service.Snapshot();
    EXPECT_EQ(snapshot->publish_strategy, PublishStrategy::kDelta)
        << PublishStrategySettingName(setting);
    const ReachabilityMatrix post(mutated);
    for (NodeId u = 0; u < snapshot->NumNodes(); ++u) {
      for (NodeId v = 0; v < snapshot->NumNodes(); ++v) {
        ASSERT_EQ(snapshot->Reaches(u, v), post.Reaches(u, v))
            << PublishStrategySettingName(setting) << " post-delta " << u
            << "->" << v;
      }
    }
  }
}

TEST(QueryServicePublishStrategyTest, ForcedTiersTagMetricsAndSnapshots) {
  ScopedClearPublishEnv clear_env;
  const Digraph chained = ChainedDag(6, 20, 2.5, 31);
  {
    ServiceOptions options;
    options.num_workers = 0;
    options.publish_strategy = PublishStrategySetting::kForceChain;
    QueryService service(options);
    ASSERT_TRUE(service.Load(chained).ok());
    EXPECT_EQ(service.Snapshot()->publish_strategy,
              PublishStrategy::kChainFull);
    const ServiceMetrics::View view = service.Metrics();
    EXPECT_GE(view.publishes_chain_full, 1);
    EXPECT_EQ(view.last_publish_strategy, "chain_full");
    EXPECT_GT(view.chain_full_intervals_last, 0);
    EXPECT_EQ(view.publishes_full,
              view.publishes_chain_full + view.publishes_optimal_full);
  }
  {
    ServiceOptions options;
    options.num_workers = 0;
    options.publish_strategy = PublishStrategySetting::kForceOptimal;
    QueryService service(options);
    ASSERT_TRUE(service.Load(chained).ok());
    EXPECT_EQ(service.Snapshot()->publish_strategy,
              PublishStrategy::kOptimalFull);
    const ServiceMetrics::View view = service.Metrics();
    EXPECT_EQ(view.publishes_chain_full, 0);
    EXPECT_GE(view.publishes_optimal_full, 2);  // Bootstrap + Load.
    EXPECT_EQ(view.last_publish_strategy, "optimal_full");
  }
  {
    // Forcing chain on a shape whose chain build trips the entry cap must
    // fall back to the Alg1 build — and the provenance tag must say so.
    ServiceOptions options;
    options.num_workers = 0;
    options.publish_strategy = PublishStrategySetting::kForceChain;
    QueryService service(options);
    ASSERT_TRUE(service.Load(CompleteBipartite(120, 120)).ok());
    EXPECT_EQ(service.Snapshot()->publish_strategy,
              PublishStrategy::kOptimalFull);
    EXPECT_TRUE(service.Reaches(0, 121));
    EXPECT_FALSE(service.Reaches(121, 0));
  }
}

TEST(QueryServicePublishStrategyTest, AutoSelectsByEligibilityAndCadence) {
  ScopedClearPublishEnv clear_env;
  ServiceOptions options;
  options.num_workers = 0;
  // Every publish is full: a rebuild at Load, then a fold of the dirty
  // nodes unless a tier rebuild dirtied every node first.
  options.delta_publish = false;
  options.chain_reoptimize_cadence = 2;
  QueryService service(options);

  // Chain-structured graph: auto picks the chain-fast tier at Load.
  ASSERT_TRUE(service.Load(ChainedDag(6, 20, 2.5, 31)).ok());
  EXPECT_EQ(service.Snapshot()->publish_strategy, PublishStrategy::kChainFull);
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.publishes_chain_full, 1);
  EXPECT_EQ(view.last_publish_strategy, "chain_full");

  // The next full publish is the 2nd consecutive chain-cover one, so the
  // cadence upgrades it to an Alg1-optimal rebuild mid-publish.
  auto leaf = service.AddLeafUnder(0);
  ASSERT_TRUE(leaf.ok());
  service.Publish();
  EXPECT_EQ(service.Snapshot()->publish_strategy,
            PublishStrategy::kOptimalFull);
  view = service.Metrics();
  EXPECT_EQ(view.publishes_chain_full, 1);
  EXPECT_EQ(view.publishes_optimal_full, 2);  // Bootstrap + this one.
  EXPECT_EQ(view.last_publish_strategy, "optimal_full");
  // The Reoptimize relabeled every node, so this publish rebuilt its
  // arena instead of folding.
  EXPECT_EQ(view.publishes_folded, 0);
  // Both tiers have now published, so the blowup ratio is live (the chain
  // labeling can only be as good as or worse than Alg1's).
  EXPECT_GT(view.chain_full_intervals_last, 0);
  EXPECT_GT(view.optimal_full_intervals_last, 0);
  EXPECT_GE(view.chain_interval_blowup, 1.0);

  // Chain-hostile graph: auto stays on the Alg1-optimal tier at Load.
  ASSERT_TRUE(service.Load(RandomDag(500, 3.0, 11)).ok());
  EXPECT_EQ(service.Snapshot()->publish_strategy,
            PublishStrategy::kOptimalFull);
  EXPECT_EQ(service.Metrics().publishes_chain_full, 1);  // Unchanged.
}

TEST(QueryServiceAdmissionTest, RejectsAtLimitThenRecoversExactly) {
  Digraph graph = RandomDag(80, 2.5, 33);
  ReachabilityMatrix matrix(graph);
  ServiceOptions options = SmallBatchOptions();
  options.max_inflight_batches = 2;
  QueryService service(options);
  ASSERT_TRUE(service.Load(graph).ok());

  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 40}, {3, 77}, {12, 12}, {60, 5}};
  const std::vector<NodeId> nodes = {0, 7, 79};

  // Pin the gate deterministically: with both slots occupied, every Try*
  // batch takes the third slot and is shed.  (Timing-based occupancy
  // would be flaky on a one-core CI box; slots are the ops drain hook.)
  {
    std::vector<QueryService::ScopedBatchSlot> pins;
    pins.push_back(service.AcquireBatchSlot());
    pins.push_back(service.AcquireBatchSlot());
    EXPECT_EQ(service.InflightBatches(), 2);

    auto rejected_reaches = service.TryBatchReaches(pairs);
    ASSERT_FALSE(rejected_reaches.ok());
    EXPECT_EQ(rejected_reaches.status().code(),
              StatusCode::kResourceExhausted);
    auto rejected_successors = service.TryBatchSuccessors(nodes);
    ASSERT_FALSE(rejected_successors.ok());
    EXPECT_EQ(rejected_successors.status().code(),
              StatusCode::kResourceExhausted);

    // Rejections are counted, never silently dropped...
    ServiceMetrics::View view = service.Metrics();
    EXPECT_EQ(view.batches_rejected, 2);
    EXPECT_EQ(view.batches, 0);  // ...and never ran as batches.
    EXPECT_EQ(view.inflight_batches, 2);

    // The trusted (non-Try) entry points are never rejected, even with
    // the gate pinned shut.
    const std::vector<uint8_t> forced = service.BatchReaches(pairs);
    ASSERT_EQ(forced.size(), pairs.size());
  }

  // Slots released: the same batches are admitted and answer exactly.
  EXPECT_EQ(service.InflightBatches(), 0);
  auto admitted_reaches = service.TryBatchReaches(pairs);
  ASSERT_TRUE(admitted_reaches.ok());
  ASSERT_EQ(admitted_reaches.value().size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(admitted_reaches.value()[i] != 0,
              matrix.Reaches(pairs[i].first, pairs[i].second))
        << pairs[i].first << "->" << pairs[i].second;
  }
  auto admitted_successors = service.TryBatchSuccessors(nodes);
  ASSERT_TRUE(admitted_successors.ok());
  ASSERT_EQ(admitted_successors.value().size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::vector<NodeId> got = admitted_successors.value()[i];
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, matrix.Successors(nodes[i])) << "node " << nodes[i];
  }
  ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.batches_rejected, 2);  // Unchanged by admitted traffic.
  EXPECT_EQ(view.inflight_batches, 0);
}

TEST(QueryServiceAdmissionTest, UnlimitedByDefaultNeverRejects) {
  Digraph graph = RandomDag(40, 2.0, 7);
  QueryService service(SmallBatchOptions());  // max_inflight_batches = 0.
  ASSERT_TRUE(service.Load(graph).ok());

  std::vector<QueryService::ScopedBatchSlot> pins;
  for (int i = 0; i < 16; ++i) pins.push_back(service.AcquireBatchSlot());
  auto result = service.TryBatchReaches({{0, 1}, {2, 3}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
  EXPECT_EQ(service.Metrics().batches_rejected, 0);
}

// --- Concurrency (TSan targets) --------------------------------------------

// Readers hammer single queries, batches, and snapshot handles while one
// writer grows the graph and publishes every few updates.  Each reader
// checks invariants that hold for *every* consistent snapshot:
// monotonically non-decreasing epochs, reflexive reachability, batch
// answers consistent with the snapshot they were served from.
TEST(QueryServiceConcurrencyTest, ReadersNeverSeeTornState) {
  ServiceOptions options;
  options.num_workers = 2;
  options.min_parallel_batch = 64;
  options.stats_on_publish = false;  // Keep the publish loop tight.
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(300, 2.0, 91)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads_done{0};

  auto reader = [&](uint64_t seed) {
    Random rng(seed);
    uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto snapshot = service.Snapshot();
      ASSERT_GE(snapshot->epoch, last_epoch);
      last_epoch = snapshot->epoch;
      const NodeId n = snapshot->NumNodes();
      ASSERT_GE(n, 300);
      // Reflexivity on the snapshot's own node universe.
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      ASSERT_TRUE(snapshot->Reaches(u, u));
      // A batch is served from one snapshot: answers must agree with a
      // direct query against a snapshot taken before the batch (only
      // false->true transitions are possible as the graph only grows, and
      // within one snapshot answers are fixed).
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (int i = 0; i < 128; ++i) {
        pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                           static_cast<NodeId>(rng.Uniform(n)));
      }
      std::vector<uint8_t> batch = service.BatchReaches(pairs);
      auto after = service.Snapshot();
      for (size_t i = 0; i < pairs.size(); ++i) {
        const bool before_ok =
            snapshot->Reaches(pairs[i].first, pairs[i].second);
        const bool after_ok = after->Reaches(pairs[i].first, pairs[i].second);
        // Growth-only workload: reachability is monotone across epochs.
        if (before_ok) {
          ASSERT_TRUE(batch[i] != 0);
        }
        if (!after_ok) {
          ASSERT_TRUE(batch[i] == 0);
        }
      }
      reads_done.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back(reader, static_cast<uint64_t>(t + 1));
  }

  // Writer: grow the DAG (leaves + arcs), publish every few updates.
  Random rng(17);
  for (int round = 0; round < 40; ++round) {
    for (int j = 0; j < 5; ++j) {
      const NodeId parent = static_cast<NodeId>(
          rng.Uniform(static_cast<uint64_t>(300 + round * 5 + j)));
      ASSERT_TRUE(service.AddLeafUnder(parent).ok());
    }
    // Occasional non-tree arc; duplicates/cycles are fine to reject.
    (void)service.AddArc(static_cast<NodeId>(rng.Uniform(100)),
                         static_cast<NodeId>(300 + rng.Uniform(40)));
    service.Publish();
  }

  // Let readers observe the final state, then stop.
  while (reads_done.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(service.Metrics().current_epoch, 41u);
}

// Readers pin old snapshots across many delta publishes.  The shared
// base layer must stay alive for as long as any pinned overlay references
// it — including across forced full exports that retire the writer's
// current base — and a pinned snapshot's answers must never drift while
// overlays accumulate on top of it.
TEST(QueryServiceConcurrencyTest, ReadersHoldSnapshotsAcrossDeltaPublishes) {
  ServiceOptions options;
  options.num_workers = 0;
  options.stats_on_publish = false;  // Keep the publish loop tight.
  options.max_delta_publishes = 8;   // Retire bases mid-run.
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(400, 2.0, 93)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> rounds_done{0};

  auto reader = [&](uint64_t seed) {
    Random rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      // Pin one snapshot and record some of its answers.
      auto pinned = service.Snapshot();
      const NodeId n = pinned->NumNodes();
      std::vector<std::pair<NodeId, NodeId>> pairs;
      std::vector<uint8_t> expected;
      for (int i = 0; i < 32; ++i) {
        pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                           static_cast<NodeId>(rng.Uniform(n)));
        expected.push_back(
            pinned->Reaches(pairs.back().first, pairs.back().second) ? 1 : 0);
      }
      // Hold the snapshot across many concurrent publishes: everything
      // about it is frozen.
      for (int probe = 0; probe < 20; ++probe) {
        ASSERT_EQ(pinned->NumNodes(), n);
        for (size_t i = 0; i < pairs.size(); ++i) {
          ASSERT_EQ(pinned->Reaches(pairs[i].first, pairs[i].second) ? 1 : 0,
                    expected[i]);
        }
        std::this_thread::yield();
      }
      rounds_done.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back(reader, static_cast<uint64_t>(t + 101));
  }

  // Writer: one-leaf batches keep the dirty set tiny, so nearly every
  // publish rides the delta path (every 9th is a forced full export).
  Random rng(29);
  NodeId num_nodes = 400;
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(
        service
            .AddLeafUnder(static_cast<NodeId>(rng.Uniform(num_nodes)))
            .ok());
    ++num_nodes;
    service.Publish();
  }

  while (rounds_done.load(std::memory_order_relaxed) < 9) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  ServiceMetrics::View view = service.Metrics();
  EXPECT_GT(view.publishes_delta, 0);
  EXPECT_GT(view.publishes_full, 1);  // Forced full exports happened.
}

// Readers call Reaches itself, not a held snapshot, while the writer
// grows the graph and alternates delta and forced-full publishes.  The
// ops only add, so a pair's answer never turns from true to false; and
// reach_queries counts every call, including calls from reader threads
// that exited long before the count is read.
TEST(QueryServiceConcurrencyTest, ApiReadersStayMonotoneAndCounted) {
  ServiceOptions options;
  options.num_workers = 0;
  options.stats_on_publish = false;  // Keep the publish loop tight.
  options.max_delta_publishes = 4;   // Every fifth publish is full.
  QueryService service(options);
  constexpr NodeId kBase = 300;
  ASSERT_TRUE(service.Load(RandomDag(kBase, 1.5, 94)).ok());
  const int64_t fulls_before = service.Metrics().publishes_full;

  std::vector<std::pair<NodeId, NodeId>> pairs;
  Random pair_rng(7);
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(static_cast<NodeId>(pair_rng.Uniform(kBase)),
                       static_cast<NodeId>(pair_rng.Uniform(kBase)));
  }
  std::vector<std::atomic<uint8_t>> ever_true(pairs.size());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> turned_false{0};
  std::atomic<int> waves{0};

  // Short-lived readers, three at a time, so most of the counted calls
  // come from threads that have exited (and whose indices were reused).
  const auto reader = [&] {
    std::vector<uint8_t> seen(pairs.size(), 0);
    int64_t local_calls = 0;
    for (int pass = 0; pass < 8; ++pass) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        const bool hit = service.Reaches(pairs[i].first, pairs[i].second);
        ++local_calls;
        if (seen[i] && !hit) turned_false.fetch_add(1);
        if (hit) {
          seen[i] = 1;
          ever_true[i].store(1, std::memory_order_relaxed);
        }
      }
    }
    calls.fetch_add(local_calls);
  };
  std::thread launcher([&] {
    while (!stop.load()) {
      std::vector<std::thread> wave;
      for (int t = 0; t < 3; ++t) wave.emplace_back(reader);
      for (std::thread& t : wave) t.join();
      waves.fetch_add(1);
    }
  });

  Random rng(31);
  NodeId num_nodes = kBase;
  for (int round = 0; round < 60; ++round) {
    for (int j = 0; j < 3; ++j) {
      ASSERT_TRUE(service
                      .AddLeafUnder(static_cast<NodeId>(
                          rng.Uniform(static_cast<uint64_t>(num_nodes))))
                      .ok());
      ++num_nodes;
    }
    // Arcs among the queried nodes turn answers true; cycles and
    // duplicates are rejected, which is fine.
    (void)service.AddArc(static_cast<NodeId>(rng.Uniform(kBase)),
                         static_cast<NodeId>(rng.Uniform(kBase)));
    service.Publish();
    std::this_thread::yield();
  }
  while (waves.load() < 3) std::this_thread::yield();
  stop.store(true);
  launcher.join();

  EXPECT_EQ(turned_false.load(), 0);
  const std::shared_ptr<const ClosureSnapshot> last = service.Snapshot();
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (ever_true[i].load(std::memory_order_relaxed)) {
      EXPECT_TRUE(last->Reaches(pairs[i].first, pairs[i].second))
          << "pair (" << pairs[i].first << "," << pairs[i].second << ")";
    }
  }
  const ServiceMetrics::View view = service.Metrics();
  EXPECT_EQ(view.reach_queries, calls.load());
  EXPECT_GT(view.publishes_delta, 0);
  EXPECT_GE(view.publishes_full - fulls_before, 60 / 5);  // Forced fulls.
}

// More live reader threads than reader slots: the threads past the slots
// take the mutex-guarded fallback, whose answers and counts must be just
// as exact, while the writer keeps swapping snapshots under them.
TEST(QueryServiceConcurrencyTest, ReadersBeyondTheSlotsStayExact) {
  constexpr int kSlots = PublishedPtr<ClosureSnapshot, 1>::kSlots;
  constexpr int kThreads = kSlots + 8;
  constexpr int kPasses = 4;
  ServiceOptions options;
  options.num_workers = 0;
  options.stats_on_publish = false;
  QueryService service(options);
  const Digraph graph = RandomDag(200, 2.0, 95);
  ASSERT_TRUE(service.Load(graph).ok());
  const ReachabilityMatrix truth(graph);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Random rng(11);
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(200)),
                       static_cast<NodeId>(rng.Uniform(200)));
  }

  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<int> overflowed{0};
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      // Every reader holds its thread index before any reader reads, so
      // at least kThreads - kSlots of them are past the slots.
      if (CurrentThreadIndex() >= kSlots) overflowed.fetch_add(1);
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const auto& [u, v] : pairs) {
          if (service.Reaches(u, v) != truth.Reaches(u, v)) {
            wrong.fetch_add(1);
          }
        }
        if (service.Snapshot()->NumNodes() < 200) wrong.fetch_add(1);
      }
      finished.fetch_add(1);
      while (finished.load() < kThreads) std::this_thread::yield();
    });
  }
  // Leaves under the queried nodes leave their answers unchanged.
  while (finished.load() < kThreads) {
    ASSERT_TRUE(service.AddLeafUnder(static_cast<NodeId>(rng.Uniform(200)))
                    .ok());
    service.Publish();
  }
  for (std::thread& t : readers) t.join();

  EXPECT_GE(overflowed.load(), kThreads - kSlots);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(service.Metrics().reach_queries,
            int64_t{kThreads} * kPasses * static_cast<int64_t>(pairs.size()));
}

// The destructor must cleanly drain the worker pool even with batches
// in flight right up to the end.
TEST(QueryServiceConcurrencyTest, DestructionWithBusyPoolIsClean) {
  for (int round = 0; round < 3; ++round) {
    QueryService service(SmallBatchOptions());
    ASSERT_TRUE(service.Load(RandomDag(100, 2.0, 92)).ok());
    std::vector<std::pair<NodeId, NodeId>> pairs(512, {0, 99});
    std::thread reader([&service, &pairs] {
      for (int i = 0; i < 20; ++i) (void)service.BatchReaches(pairs);
    });
    reader.join();
  }
}

}  // namespace
}  // namespace trel

// Differential suite for the sharded query service: a
// ShardedQueryService at any K must be bit-for-bit indistinguishable
// from the monolithic QueryService — same answers, same error codes,
// same assigned node ids, same visibility rules — on every graph family
// and under interleaved update streams that dirty the shard boundary.
//
// TREL_SHARDS pins the shard-count sweep to one value (the CI shard
// matrix runs the suite once per K); unset, each test sweeps
// K in {1, 2, 4, 8}.

#include "service/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace trel {

// Reads a ShardedQueryService's hub registry and published root, for
// checks that need the hubs and failure messages that print the root.
class ShardedQueryServicePeer {
 public:
  explicit ShardedQueryServicePeer(const ShardedQueryService& service)
      : service_(service) {}

  // Hub node ids in bit order.
  std::vector<NodeId> Hubs() const {
    std::lock_guard<std::mutex> lock(service_.writer_mutex_);
    return service_.hub_at_bit_;
  }

  // How the published root sees (u, v): its epoch, both endpoints'
  // shards and local ids, the hubs in u's out-row and v's in-row, and,
  // when u and v share a shard, the epoch and answer of the root's
  // snapshot of that shard.
  std::string DescribePair(NodeId u, NodeId v) const {
    const auto root = service_.root_.Load();
    std::string out = "root epoch " + std::to_string(root->epoch);
    const auto known = [&root](NodeId x) {
      return x >= 0 && x < root->num_nodes;
    };
    if (!known(u) || !known(v)) {
      return out + ": (" + std::to_string(u) + "," + std::to_string(v) +
             ") not among its " + std::to_string(root->num_nodes) + " nodes";
    }
    const std::vector<NodeId> hubs = Hubs();
    const size_t bits =
        std::min(hubs.size(), static_cast<size_t>(root->num_hubs));
    const auto row_hubs = [&](const uint64_t* row) {
      std::string hub_list = "{";
      for (size_t bit = 0; bit < bits; ++bit) {
        if ((row[bit / 64] >> (bit % 64)) & 1) {
          hub_list += (hub_list.size() > 1 ? " " : "") +
                      std::to_string(hubs[bit]);
        }
      }
      return hub_list + "}";
    };
    const auto endpoint = [&root](NodeId x) {
      return std::to_string(x) + " in shard " +
             std::to_string(root->ShardOfAt(x)) + " as local " +
             std::to_string(root->LocalIdAt(x));
    };
    const int su = root->ShardOfAt(u);
    out += ": u " + endpoint(u) + ", v " + endpoint(v) + "; out_row(u) " +
           row_hubs(root->OutRow(u)) + " in_row(v) " +
           row_hubs(root->InRow(v));
    if (su == root->ShardOfAt(v)) {
      const ClosureSnapshot& shard = *root->shards[su];
      out += "; shard " + std::to_string(su) + " snapshot epoch " +
             std::to_string(shard.epoch) + " answers " +
             std::to_string(
                 shard.Reaches(root->LocalIdAt(u), root->LocalIdAt(v)));
    }
    return out;
  }

 private:
  const ShardedQueryService& service_;
};

namespace {

std::vector<int> ShardCounts() {
  const char* pin = std::getenv("TREL_SHARDS");
  if (pin != nullptr && *pin != '\0') return {std::max(1, std::atoi(pin))};
  return {1, 2, 4, 8};
}

ShardedServiceOptions OptionsFor(int k) {
  ShardedServiceOptions options;
  options.num_shards = k;
  return options;
}

// Every pair, both orders: the sharded and monolithic services must
// agree with each other AND (when given) with the DFS ground truth.
void ExpectAllPairsAgree(const ShardedQueryService& sharded,
                         const QueryService& mono, NodeId n,
                         const ReachabilityMatrix* truth,
                         const std::string& context) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<size_t>(n) * n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  const std::vector<uint8_t> got = sharded.BatchReaches(pairs);
  const std::vector<uint8_t> want = mono.BatchReaches(pairs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i] != 0, want[i] != 0)
        << context << ": pair (" << pairs[i].first << "," << pairs[i].second
        << ")";
    ASSERT_EQ(sharded.Reaches(pairs[i].first, pairs[i].second), want[i] != 0)
        << context << ": single Reaches (" << pairs[i].first << ","
        << pairs[i].second << ")";
    if (truth != nullptr) {
      ASSERT_EQ(got[i] != 0, truth->Reaches(pairs[i].first, pairs[i].second))
          << context << ": oracle (" << pairs[i].first << ","
          << pairs[i].second << ")";
    }
  }
}

// Successor sets must match as SETS; the monolithic snapshot enumerates
// in label order, the sharded path in ascending global id.
void ExpectSuccessorsAgree(const ShardedQueryService& sharded,
                           const QueryService& mono, NodeId n,
                           const std::string& context) {
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> want = mono.Successors(u);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sharded.Successors(u), want) << context << ": node " << u;
  }
}

void ExpectSampledPairsAgree(const ShardedQueryService& sharded,
                             const QueryService& mono, NodeId n,
                             int samples, Random& rng,
                             const std::string& context) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
  }
  const std::vector<uint8_t> got = sharded.BatchReaches(pairs);
  const std::vector<uint8_t> want = mono.BatchReaches(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i] != 0, want[i] != 0)
        << context << ": pair (" << pairs[i].first << "," << pairs[i].second
        << ")";
  }
}

TEST(ShardedServiceTest, LoadMatchesMonolithicOnRandomDags) {
  for (const int k : ShardCounts()) {
    for (const uint64_t seed : {21u, 22u}) {
      const Digraph graph = RandomDag(120, 2.5, seed);
      const ReachabilityMatrix truth(graph);
      QueryService mono;
      ASSERT_TRUE(mono.Load(graph).ok());
      ShardedQueryService sharded(OptionsFor(k));
      ASSERT_TRUE(sharded.Load(graph).ok());
      const std::string context =
          "k=" + std::to_string(k) + " seed=" + std::to_string(seed);
      ExpectAllPairsAgree(sharded, mono, graph.NumNodes(), &truth, context);
      ExpectSuccessorsAgree(sharded, mono, graph.NumNodes(), context);
    }
  }
}

TEST(ShardedServiceTest, ClusteredAndHubDagsMatch) {
  for (const int k : ShardCounts()) {
    const std::string context = "k=" + std::to_string(k);
    {
      const Digraph graph = ClusteredDag(6, 40, 3.0, 2, 0.1, 5);
      QueryService mono;
      ASSERT_TRUE(mono.Load(graph).ok());
      ShardedQueryService sharded(OptionsFor(k));
      ASSERT_TRUE(sharded.Load(graph).ok());
      ExpectAllPairsAgree(sharded, mono, graph.NumNodes(), nullptr,
                          context + " clustered");
    }
    {
      const Digraph graph = HubDag(60, 5, 50, 6);
      QueryService mono;
      ASSERT_TRUE(mono.Load(graph).ok());
      ShardedQueryService sharded(OptionsFor(k));
      ASSERT_TRUE(sharded.Load(graph).ok());
      ExpectAllPairsAgree(sharded, mono, graph.NumNodes(), nullptr,
                          context + " hubdag");
    }
  }
}

TEST(ShardedServiceTest, OutOfRangeAndReflexiveSemanticsMatch) {
  for (const int k : ShardCounts()) {
    const Digraph graph = RandomDag(30, 2.0, 3);
    QueryService mono;
    ASSERT_TRUE(mono.Load(graph).ok());
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());
    for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
             {-1, 0}, {0, -1}, {30, 0}, {0, 30}, {99, 99}, {5, 5}}) {
      EXPECT_EQ(sharded.Reaches(u, v), mono.Reaches(u, v))
          << "(" << u << "," << v << ")";
    }
    EXPECT_TRUE(sharded.Reaches(5, 5));
    EXPECT_TRUE(sharded.Successors(-3).empty());
    EXPECT_TRUE(sharded.Successors(30).empty());
  }
}

TEST(ShardedServiceTest, ErrorCodeParityWithMonolithic) {
  for (const int k : ShardCounts()) {
    const Digraph graph = testing_util::PaperStyleDag();
    QueryService mono;
    ASSERT_TRUE(mono.Load(graph).ok());
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());

    // Invalid endpoints / parents.
    EXPECT_EQ(sharded.AddArc(-1, 2).code(), mono.AddArc(-1, 2).code());
    EXPECT_EQ(sharded.AddArc(0, 99).code(), mono.AddArc(0, 99).code());
    EXPECT_EQ(sharded.AddLeafUnder(99).status().code(),
              mono.AddLeafUnder(99).status().code());
    EXPECT_EQ(sharded.AddLeafUnder(99).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sharded.RemoveArc(-1, 2).code(), mono.RemoveArc(-1, 2).code());

    // Self loops and cycles are invalid-argument, duplicates
    // already-exists, missing removals not-found — same precedence as
    // DynamicClosure.
    EXPECT_EQ(sharded.AddArc(3, 3).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sharded.AddArc(3, 3).code(), mono.AddArc(3, 3).code());
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) {
        if (u == v) continue;
        // Probe every pair on BOTH services; each probe mutates on
        // success, so apply to both to keep them in lockstep.
        const StatusCode got = sharded.AddArc(u, v).code();
        const StatusCode want = mono.AddArc(u, v).code();
        ASSERT_EQ(got, want) << "AddArc(" << u << "," << v << ")";
      }
    }
    EXPECT_EQ(sharded.RemoveArc(0, 9).code(), mono.RemoveArc(0, 9).code());
    sharded.Publish();
    mono.Publish();
    ExpectAllPairsAgree(sharded, mono, graph.NumNodes(), nullptr,
                        "k=" + std::to_string(k) + " error-parity");
  }
}

// K = 2 with labels 2^28 apart and no reserve: a shard numbering fits at
// most 15 nodes (CompactNumberingFits), so small graphs fill it.
ShardedServiceOptions TightNumberingOptions() {
  ShardedServiceOptions options = OptionsFor(2);
  options.shard.closure.labeling.gap = Label{1} << 28;
  options.shard.closure.labeling.reserve = 0;
  return options;
}

// 0 -> 1 -> ... -> n-1, or the reverse.
Digraph Chain(NodeId n, bool reversed = false) {
  Digraph graph(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    TREL_CHECK((reversed ? graph.AddArc(v + 1, v) : graph.AddArc(v, v + 1))
                   .ok());
  }
  return graph;
}

// Every pair over `graph`'s nodes answers its DFS truth.
void ExpectMatchesTruth(const ShardedQueryService& sharded,
                        const Digraph& graph, const std::string& context) {
  const ReachabilityMatrix truth(graph);
  int64_t wrong = 0;
  std::string first;
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (sharded.Reaches(u, v) == truth.Reaches(u, v)) continue;
      if (wrong++ == 0) {
        first = "(" + std::to_string(u) + "," + std::to_string(v) + ")";
      }
    }
  }
  EXPECT_EQ(wrong, 0) << context << ": " << wrong << " of "
                      << graph.NumNodes() * graph.NumNodes()
                      << " pairs answer wrong, first " << first;
}

// A shard whose numbering is full fails AddLeafUnder with the status the
// monolithic service returns, before any boundary state changes; the
// other shard keeps taking leaves.
TEST(ShardedServiceTest, FullShardNumberingFailsAddLeafWithStatus) {
  ShardedQueryService sharded(TightNumberingOptions());
  Digraph graph = Chain(10);
  ASSERT_TRUE(sharded.Load(graph).ok());
  StatusCode failed = StatusCode::kOk;
  for (int i = 0; i < 20 && failed == StatusCode::kOk; ++i) {
    const StatusOr<NodeId> leaf = sharded.AddLeafUnder(0);
    failed = leaf.status().code();
    if (leaf.ok()) {
      ASSERT_EQ(*leaf, graph.AddNode());
      ASSERT_TRUE(graph.AddArc(0, *leaf).ok());
    }
  }
  EXPECT_EQ(failed, StatusCode::kResourceExhausted);
  sharded.Publish();
  EXPECT_EQ(sharded.MetricsView().num_nodes, graph.NumNodes());
  ExpectMatchesTruth(sharded, graph, "after the full shard");

  // The last node lives in the other shard, which still has room.
  const NodeId last = 9;
  const StatusOr<NodeId> leaf = sharded.AddLeafUnder(last);
  ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
  EXPECT_EQ(*leaf, graph.AddNode());
  ASSERT_TRUE(graph.AddArc(last, *leaf).ok());
  sharded.Publish();
  ExpectMatchesTruth(sharded, graph, "after a leaf in the other shard");

  QueryService mono(TightNumberingOptions().shard);
  ASSERT_TRUE(mono.Load(Chain(15)).ok());
  EXPECT_EQ(mono.AddLeafUnder(0).status().code(), failed);
}

// A Load that fails on a later shard leaves every shard and the boundary
// serving the previous graph.  The reversed 31-node chain splits 15 / 16:
// shard 0's 15 nodes fit and shard 1's 16 do not.  Had shard 0 loaded its
// part, it would answer the previous graph's pairs backwards.  Both
// services' Load fail at the limit with AddLeafUnder's code, so a caller
// retries on one code.
TEST(ShardedServiceTest, FailedLoadKeepsPreviousGraph) {
  ShardedQueryService sharded(TightNumberingOptions());
  const Digraph previous = Chain(10);
  ASSERT_TRUE(sharded.Load(previous).ok());
  const Digraph too_big = Chain(31, /*reversed=*/true);
  QueryService mono(TightNumberingOptions().shard);
  const Status status = sharded.Load(too_big);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(status.code(), mono.Load(too_big).code());
  QueryService full(TightNumberingOptions().shard);
  ASSERT_TRUE(full.Load(Chain(15)).ok());
  EXPECT_EQ(status.code(), full.AddLeafUnder(0).status().code());
  EXPECT_EQ(sharded.MetricsView().num_nodes, previous.NumNodes());
  ExpectMatchesTruth(sharded, previous, "after the failed Load");
  sharded.Publish();
  ExpectMatchesTruth(sharded, previous, "republished after the failed Load");
}

TEST(ShardedServiceTest, UnpublishedUpdatesAreInvisible) {
  for (const int k : ShardCounts()) {
    const Digraph graph = RandomDag(60, 2.0, 9);
    QueryService mono;
    ASSERT_TRUE(mono.Load(graph).ok());
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());

    const StatusOr<NodeId> leaf_s = sharded.AddLeafUnder(0);
    const StatusOr<NodeId> leaf_m = mono.AddLeafUnder(0);
    ASSERT_TRUE(leaf_s.ok());
    ASSERT_TRUE(leaf_m.ok());
    EXPECT_EQ(*leaf_s, *leaf_m);  // Same sequential global ids.
    // Invisible on both until Publish.
    EXPECT_FALSE(sharded.Reaches(0, *leaf_s));
    EXPECT_FALSE(mono.Reaches(0, *leaf_m));
    sharded.Publish();
    mono.Publish();
    EXPECT_TRUE(sharded.Reaches(0, *leaf_s));
    EXPECT_TRUE(mono.Reaches(0, *leaf_m));
    ExpectAllPairsAgree(sharded, mono, graph.NumNodes() + 1, nullptr,
                        "k=" + std::to_string(k) + " leaf");
  }
}

TEST(ShardedServiceTest, InterleavedUpdateStreamStaysBitForBit) {
  for (const int k : ShardCounts()) {
    for (const uint64_t seed : {31u, 32u}) {
      const Digraph graph = ClusteredDag(4, 25, 2.5, 2, 0.12, seed);
      QueryService mono;
      ASSERT_TRUE(mono.Load(graph).ok());
      ShardedQueryService sharded(OptionsFor(k));
      ASSERT_TRUE(sharded.Load(graph).ok());

      Random rng(seed * 1000 + k);
      // Driver-side arc list for removal picks; mirrors both services.
      std::vector<std::pair<NodeId, NodeId>> arcs = graph.Arcs();
      NodeId n = graph.NumNodes();
      const std::string context =
          "k=" + std::to_string(k) + " seed=" + std::to_string(seed);

      for (int op = 0; op < 160; ++op) {
        const uint64_t kind = rng.Uniform(10);
        if (kind < 4) {
          // Random arc: exercises same-shard and cross-shard inserts,
          // duplicate and cycle rejections — codes must agree.
          const NodeId u = static_cast<NodeId>(rng.Uniform(n));
          const NodeId v = static_cast<NodeId>(rng.Uniform(n));
          const Status got = sharded.AddArc(u, v);
          const Status want = mono.AddArc(u, v);
          ASSERT_EQ(got.code(), want.code())
              << context << " op " << op << ": AddArc(" << u << "," << v
              << ") sharded=" << got.ToString()
              << " mono=" << want.ToString();
          if (got.ok()) arcs.emplace_back(u, v);
        } else if (kind < 6) {
          // New leaf, occasionally a parentless root.
          const NodeId parent = rng.Uniform(8) == 0
                                    ? kNoNode
                                    : static_cast<NodeId>(rng.Uniform(n));
          const StatusOr<NodeId> got = sharded.AddLeafUnder(parent);
          const StatusOr<NodeId> want = mono.AddLeafUnder(parent);
          ASSERT_EQ(got.status().code(), want.status().code())
              << context << " op " << op;
          if (got.ok()) {
            ASSERT_EQ(*got, *want) << context << " op " << op;
            ASSERT_EQ(*got, n) << context << " op " << op;
            if (parent != kNoNode) arcs.emplace_back(parent, *got);
            ++n;
          }
        } else if (kind < 8 && !arcs.empty()) {
          // Remove a live arc (tree or non-tree, possibly cross-shard).
          const size_t pick = rng.Uniform(arcs.size());
          const auto [u, v] = arcs[pick];
          const Status got = sharded.RemoveArc(u, v);
          const Status want = mono.RemoveArc(u, v);
          ASSERT_EQ(got.code(), want.code())
              << context << " op " << op << ": RemoveArc(" << u << "," << v
              << ")";
          if (got.ok()) {
            arcs[pick] = arcs.back();
            arcs.pop_back();
          }
        } else {
          sharded.Publish();
          mono.Publish();
        }
        if (op % 20 == 19) {
          sharded.Publish();
          mono.Publish();
          ExpectSampledPairsAgree(sharded, mono, n, 300, rng,
                                  context + " op " + std::to_string(op));
        }
      }
      sharded.Publish();
      mono.Publish();
      ExpectAllPairsAgree(sharded, mono, n, nullptr, context + " final");
      ExpectSuccessorsAgree(sharded, mono, n, context + " final");
    }
  }
}

TEST(ShardedServiceTest, CrossShardArcsPromoteHubsAndStayExact) {
  for (const int k : ShardCounts()) {
    if (k < 2) continue;  // Needs a real boundary.
    const Digraph graph = ClusteredDag(4, 30, 2.0, 2, 0.05, 17);
    QueryService mono;
    ASSERT_TRUE(mono.Load(graph).ok());
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());
    const NodeId n = graph.NumNodes();

    // Force cross-shard arcs between ordinary (non-gateway) nodes so the
    // initial hub cover cannot absorb them without promotions.
    Random rng(99);
    int added = 0;
    const int64_t before = sharded.MetricsView().hub_promotions;
    for (int attempt = 0; attempt < 400 && added < 12; ++attempt) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      const NodeId v = static_cast<NodeId>(rng.Uniform(n));
      if (sharded.ShardOf(u) == sharded.ShardOf(v)) continue;
      const Status got = sharded.AddArc(u, v);
      const Status want = mono.AddArc(u, v);
      ASSERT_EQ(got.code(), want.code())
          << "AddArc(" << u << "," << v << ")";
      if (got.ok()) ++added;
    }
    ASSERT_GT(added, 0);
    EXPECT_GT(sharded.MetricsView().hub_promotions, before);
    sharded.Publish();
    mono.Publish();
    ExpectAllPairsAgree(sharded, mono, n, nullptr, "k=" + std::to_string(k));

    const ShardedMetricsView view = sharded.MetricsView();
    EXPECT_EQ(view.num_shards, k);
    EXPECT_GT(view.num_hubs, 0);
    EXPECT_GT(view.boundary_label_bytes, 0);
    EXPECT_GT(view.boundary_republishes, 0);
  }
}

// Checks the published boundary against the DFS truth of `graph`: every
// hub x hub pair, and `samples` hub x non-hub pairs each way, through
// unsampled and sampled Reaches (the sampled one runs the timed
// pipeline), BatchReaches and every hub's Successors.  The boundary must
// hold the two bitset matrices and nothing else.
void ExpectHubPairsExact(ShardedQueryService& sharded, const Digraph& graph,
                         int samples, Random& rng,
                         const std::string& context) {
  const ShardedQueryServicePeer peer(sharded);
  const ReachabilityMatrix truth(graph);
  const NodeId n = graph.NumNodes();
  const std::vector<NodeId> hubs = peer.Hubs();
  ASSERT_FALSE(hubs.empty()) << context;
  std::vector<uint8_t> is_hub(n, 0);
  for (const NodeId h : hubs) is_hub[h] = 1;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : hubs) {
    for (const NodeId b : hubs) pairs.emplace_back(a, b);
  }
  for (int i = 0; i < samples; ++i) {
    const NodeId h = hubs[rng.Uniform(hubs.size())];
    NodeId x = static_cast<NodeId>(rng.Uniform(n));
    while (is_hub[x]) x = static_cast<NodeId>(rng.Uniform(n));
    pairs.emplace_back(h, x);
    pairs.emplace_back(x, h);
  }
  const std::vector<uint8_t> batch = sharded.BatchReaches(pairs);
  std::vector<uint8_t> sampled(pairs.size());
  sharded.tracer().SetSamplePeriod(1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    sampled[i] = sharded.Reaches(pairs[i].first, pairs[i].second);
  }
  sharded.tracer().SetSamplePeriod(0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const bool want = truth.Reaches(u, v);
    const bool single = sharded.Reaches(u, v);
    ASSERT_TRUE(single == want && (sampled[i] != 0) == want &&
                (batch[i] != 0) == want)
        << context << ": (" << u << "," << v << ") truth " << want
        << " Reaches " << single << " sampled " << int{sampled[i]}
        << " batch " << int{batch[i]} << "; " << peer.DescribePair(u, v);
  }
  for (const NodeId h : hubs) {
    std::vector<NodeId> want;
    for (NodeId v = 0; v < n; ++v) {
      if (v != h && truth.Reaches(h, v)) want.push_back(v);
    }
    ASSERT_EQ(sharded.Successors(h), want) << context << ": hub " << h;
  }
  const ShardedMetricsView view = sharded.MetricsView();
  const int64_t words = (static_cast<int64_t>(hubs.size()) + 63) / 64;
  EXPECT_EQ(view.num_hubs, static_cast<int64_t>(hubs.size())) << context;
  EXPECT_EQ(view.boundary_label_bytes,
            2 * int64_t{n} * words * static_cast<int64_t>(sizeof(uint64_t)))
      << context << ": " << hubs.size() << " hubs";
}

// Hub pairs settle on the hub bitsets.  At K = 4, cross-shard arcs
// between non-hubs promote one endpoint each until the hubs pass 64 and
// the rows grow a word; then one removal rebuilds the bits.  Every
// publish on the way is checked by ExpectHubPairsExact.
TEST(ShardedServiceTest, HubPairsSettleOnBitsetsPastAWordBoundary) {
  Digraph graph = ClusteredDag(8, 60, 2.5, 2, 0.06, 43);
  const NodeId n = graph.NumNodes();
  ShardedQueryService sharded(OptionsFor(4));
  ASSERT_TRUE(sharded.Load(graph).ok());
  const ShardedQueryServicePeer peer(sharded);
  Random rng(47);
  ExpectHubPairsExact(sharded, graph, 2000, rng, "after Load");
  ASSERT_LE(peer.Hubs().size(), 64u) << "the promotions must cross a word";

  std::vector<std::pair<NodeId, NodeId>> added;
  for (int attempt = 0; attempt < 20000 && peer.Hubs().size() <= 72;
       ++attempt) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (sharded.ShardOf(u) == sharded.ShardOf(v)) continue;
    const std::vector<NodeId> hubs = peer.Hubs();
    if (std::find(hubs.begin(), hubs.end(), u) != hubs.end() ||
        std::find(hubs.begin(), hubs.end(), v) != hubs.end()) {
      continue;
    }
    if (!sharded.AddArc(u, v).ok()) continue;  // A cycle or a duplicate.
    ASSERT_EQ(peer.Hubs().size(), hubs.size() + 1) << "AddArc did not promote";
    ASSERT_TRUE(graph.AddArc(u, v).ok());
    added.emplace_back(u, v);
    if (added.size() % 8 == 0) {
      sharded.Publish();
      ExpectHubPairsExact(sharded, graph, 2000, rng,
                          std::to_string(added.size()) + " promotions");
    }
  }
  ASSERT_GT(peer.Hubs().size(), 64u);
  sharded.Publish();
  ExpectHubPairsExact(sharded, graph, 2000, rng, "past the word boundary");

  const auto [u, v] = added[added.size() / 2];
  ASSERT_TRUE(sharded.RemoveArc(u, v).ok());
  ASSERT_TRUE(graph.RemoveArc(u, v).ok());
  sharded.Publish();
  ExpectHubPairsExact(sharded, graph, 2000, rng, "after RemoveArc");
}

TEST(ShardedServiceTest, PublishShardMakesThatShardVisible) {
  for (const int k : ShardCounts()) {
    const Digraph graph = RandomDag(80, 2.0, 13);
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());
    const NodeId parent = 10;
    const int s = sharded.ShardOf(parent);
    ASSERT_GE(s, 0);
    const StatusOr<NodeId> leaf = sharded.AddLeafUnder(parent);
    ASSERT_TRUE(leaf.ok());
    EXPECT_FALSE(sharded.Reaches(parent, *leaf));
    const uint64_t epoch_before = sharded.Epoch();
    EXPECT_GT(sharded.PublishShard(s), epoch_before);
    EXPECT_TRUE(sharded.Reaches(parent, *leaf));
    EXPECT_TRUE(sharded.Reaches(*leaf, *leaf));
  }
}

TEST(ShardedServiceTest, CleanRepublishSkipsBoundaryRebuild) {
  for (const int k : ShardCounts()) {
    const Digraph graph = RandomDag(50, 2.0, 23);
    ShardedQueryService sharded(OptionsFor(k));
    ASSERT_TRUE(sharded.Load(graph).ok());
    const int64_t republishes = sharded.MetricsView().boundary_republishes;
    const int64_t skips = sharded.MetricsView().boundary_skips;
    sharded.Publish();  // Nothing changed since Load's publish.
    sharded.Publish();
    const ShardedMetricsView view = sharded.MetricsView();
    EXPECT_EQ(view.boundary_republishes, republishes);
    EXPECT_EQ(view.boundary_skips, skips + 2);
    // A boundary-dirtying update makes the next publish a real one.
    ASSERT_TRUE(sharded.AddLeafUnder(0).ok());
    sharded.Publish();
    EXPECT_EQ(sharded.MetricsView().boundary_republishes, republishes + 1);
  }
}

TEST(ShardedServiceTest, EmptyServiceBehavesLikeEmptyMonolith) {
  for (const int k : ShardCounts()) {
    ShardedQueryService sharded(OptionsFor(k));
    QueryService mono;
    EXPECT_EQ(sharded.Reaches(0, 0), mono.Reaches(0, 0));
    EXPECT_TRUE(sharded.BatchReaches({{0, 1}, {2, 2}}) ==
                mono.BatchReaches({{0, 1}, {2, 2}}));
    // Grow from nothing: roots then arcs, never having called Load.
    const StatusOr<NodeId> a_s = sharded.AddLeafUnder(kNoNode);
    const StatusOr<NodeId> a_m = mono.AddLeafUnder(kNoNode);
    ASSERT_TRUE(a_s.ok());
    ASSERT_EQ(*a_s, *a_m);
    const StatusOr<NodeId> b_s = sharded.AddLeafUnder(*a_s);
    const StatusOr<NodeId> b_m = mono.AddLeafUnder(*a_m);
    ASSERT_TRUE(b_s.ok());
    ASSERT_EQ(*b_s, *b_m);
    sharded.Publish();
    mono.Publish();
    ExpectAllPairsAgree(sharded, mono, 2, nullptr, "k=" + std::to_string(k));
    EXPECT_TRUE(sharded.Reaches(*a_s, *b_s));
  }
}

// Readers call the front end's Reaches while the writer grows the graph
// and its shards alternate delta and forced-full publishes.  Each call
// pins one root.  The ops only add, so no answer turns from true to
// false, and cross_shard_queries matches the count this test keeps,
// including calls from exited reader threads.
TEST(ShardedServiceTest, ApiReadersStayMonotoneAndCounted) {
  ShardedQueryService sharded(OptionsFor(3));
  const Digraph graph = ClusteredDag(6, 50, 2.5, 2, 0.1, 19);
  const NodeId base = graph.NumNodes();
  ASSERT_TRUE(sharded.Load(graph).ok());

  // Distinct in-range endpoints: exactly these calls route, and a node's
  // shard never changes, so each pair's cross-shard flag is fixed.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<uint8_t> cross;
  Random pair_rng(5);
  while (pairs.size() < 256) {
    const NodeId u = static_cast<NodeId>(pair_rng.Uniform(base));
    const NodeId v = static_cast<NodeId>(pair_rng.Uniform(base));
    if (u == v) continue;
    pairs.emplace_back(u, v);
    cross.push_back(sharded.ShardOf(u) != sharded.ShardOf(v) ? 1 : 0);
  }
  const int64_t cross_before = sharded.MetricsView().cross_shard_queries;
  const auto full_publishes = [&sharded] {
    int64_t fulls = 0;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      fulls += sharded.shard(s).Metrics().publishes_full;
    }
    return fulls;
  };
  const int64_t fulls_before = full_publishes();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> cross_calls{0};
  std::atomic<int64_t> turned_false{0};
  std::atomic<int> waves{0};

  const auto reader = [&] {
    std::vector<uint8_t> seen(pairs.size(), 0);
    int64_t local_cross = 0;
    for (int pass = 0; pass < 8; ++pass) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        const bool hit = sharded.Reaches(pairs[i].first, pairs[i].second);
        local_cross += cross[i];
        if (seen[i] && !hit) turned_false.fetch_add(1);
        if (hit) seen[i] = 1;
      }
    }
    cross_calls.fetch_add(local_cross);
  };
  std::thread launcher([&] {
    while (!stop.load()) {
      std::vector<std::thread> wave;
      for (int t = 0; t < 3; ++t) wave.emplace_back(reader);
      for (std::thread& t : wave) t.join();
      waves.fetch_add(1);
    }
  });

  // Publish() publishes every shard, and every other round calls it, so
  // each shard runs past the (kMaxDeltaPublishes + 1)-th publish that the
  // delta cap forces full.
  constexpr int kRounds = 2 * (QueryService::kMaxDeltaPublishes + 1);
  Random rng(37);
  NodeId num_nodes = base;
  for (int round = 0; round < kRounds; ++round) {
    for (int j = 0; j < 3; ++j) {
      ASSERT_TRUE(sharded
                      .AddLeafUnder(static_cast<NodeId>(
                          rng.Uniform(static_cast<uint64_t>(num_nodes))))
                      .ok());
      ++num_nodes;
    }
    // Same- and cross-shard arcs among the queried nodes; cycles and
    // duplicates are rejected, which is fine.
    (void)sharded.AddArc(static_cast<NodeId>(rng.Uniform(base)),
                         static_cast<NodeId>(rng.Uniform(base)));
    if (round % 2 == 0) {
      sharded.Publish();
    } else {
      sharded.PublishShard(round % 3);
    }
    std::this_thread::yield();
  }
  while (waves.load() < 3) std::this_thread::yield();
  stop.store(true);
  launcher.join();

  EXPECT_EQ(turned_false.load(), 0);
  EXPECT_EQ(sharded.MetricsView().cross_shard_queries - cross_before,
            cross_calls.load());
  EXPECT_GT(cross_calls.load(), 0);
  // Every shard published at least kMaxDeltaPublishes + 1 times, so each
  // forced a full publish.
  EXPECT_GE(full_publishes() - fulls_before, sharded.num_shards());
}

// 0 -> 1 -> 2 beside the chain 3 -> 4 -> ... -> 39.  At K = 2, nodes 0,
// 1 and 2 land in shard 0 and node 20 in shard 1, so 0 -> 20 -> 2 is a
// second way from 0 to 2, through a hub.
Digraph TwoPathGraph() {
  Digraph graph(40);
  TREL_CHECK(graph.AddArc(0, 1).ok());
  TREL_CHECK(graph.AddArc(1, 2).ok());
  for (NodeId v = 3; v + 1 < 40; ++v) TREL_CHECK(graph.AddArc(v, v + 1).ok());
  return graph;
}

// Loads TwoPathGraph into a K = 2 service, then makes node 20 a hub:
// AddArc(0, 20) promotes it and RemoveArc(0, 20) keeps it one.
void LoadTwoPaths(ShardedQueryService& sharded) {
  ASSERT_EQ(sharded.num_shards(), 2);
  ASSERT_TRUE(sharded.Load(TwoPathGraph()).ok());
  for (const NodeId v : {0, 1, 2}) ASSERT_EQ(sharded.ShardOf(v), 0) << v;
  ASSERT_EQ(sharded.ShardOf(20), 1);
  ASSERT_TRUE(sharded.AddArc(0, 20).ok());
  ASSERT_TRUE(sharded.RemoveArc(0, 20).ok());
  sharded.Publish();
  const std::vector<NodeId> hubs = ShardedQueryServicePeer(sharded).Hubs();
  ASSERT_NE(std::find(hubs.begin(), hubs.end(), 20), hubs.end());
}

// Moves 0 -> 2 from the path through 1 to the path through hub 20, or
// back.  0 reaches 2 before and after; of these arcs only 1 -> 2 is a
// shard's (shard 0's).
void FlipToHubPath(ShardedQueryService& sharded) {
  EXPECT_TRUE(sharded.AddArc(0, 20).ok());
  EXPECT_TRUE(sharded.AddArc(20, 2).ok());
  EXPECT_TRUE(sharded.RemoveArc(1, 2).ok());
}

void FlipToShardPath(ShardedQueryService& sharded) {
  EXPECT_TRUE(sharded.AddArc(1, 2).ok());
  EXPECT_TRUE(sharded.RemoveArc(0, 20).ok());
  EXPECT_TRUE(sharded.RemoveArc(20, 2).ok());
}

// A bare shard(0).Publish() is the first step of Publish(): shard 0's
// snapshot loses 1 -> 2 before any root carries the hub rows of 0 -> 20
// -> 2.  Reads pin the root, whose rows and shard snapshots come from
// one publish, so 0 still reaches 2 through the old path.
TEST(ShardedServiceTest, BareShardPublishLeavesReadsOnTheRoot) {
  ShardedQueryService sharded(OptionsFor(2));
  ASSERT_NO_FATAL_FAILURE(LoadTwoPaths(sharded));
  const ShardedQueryServicePeer peer(sharded);
  FlipToHubPath(sharded);
  sharded.shard(0).Publish();
  EXPECT_TRUE(sharded.Reaches(0, 2)) << peer.DescribePair(0, 2);
  EXPECT_EQ(sharded.BatchReaches({{0, 2}}), std::vector<uint8_t>{1})
      << peer.DescribePair(0, 2);
  std::vector<NodeId> successors = sharded.Successors(0);
  EXPECT_NE(std::find(successors.begin(), successors.end(), 2),
            successors.end())
      << peer.DescribePair(0, 2);

  sharded.Publish();
  EXPECT_TRUE(sharded.Reaches(0, 2)) << peer.DescribePair(0, 2);
  EXPECT_FALSE(sharded.Reaches(1, 2)) << peer.DescribePair(1, 2);
  EXPECT_EQ(sharded.BatchReaches({{0, 2}, {20, 2}}),
            (std::vector<uint8_t>{1, 1}))
      << peer.DescribePair(20, 2);
  successors = sharded.Successors(0);
  EXPECT_NE(std::find(successors.begin(), successors.end(), 2),
            successors.end())
      << peer.DescribePair(0, 2);
}

// "{1 2 20}", for failure messages.
std::string JoinIds(const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId id : ids) {
    out += (out.empty() ? "" : " ") + std::to_string(id);
  }
  return "{" + out + "}";
}

// Three readers ask about 0 -> 2 while one writer flips it between the
// shard path 0 -> 1 -> 2 and the hub path 0 -> 20 -> 2, each flip after
// one add or removal of a shortcut arc along the chain.  Shortcuts
// change no reachability, but their removals rebuild the bitsets and
// their cross-shard adds promote hubs.  A flip publishes with
// PublishShard(0) when shard 0 is the only shard it dirtied, else with
// Publish().  Every answer must be the truth of one of the two graph
// states; each mismatch is counted, and the first ten are described.
// Bounded by the writer's flip count, not by time.
TEST(ShardedServiceTest, PathFlipsUnderReadersNeverTear) {
  ShardedQueryService sharded(OptionsFor(2));
  ASSERT_NO_FATAL_FAILURE(LoadTwoPaths(sharded));
  const ShardedQueryServicePeer peer(sharded);
  // 0 -> 2 holds in both states; the other three pairs flip.
  const std::vector<std::pair<NodeId, NodeId>> batch = {
      {0, 2}, {1, 2}, {20, 2}, {0, 20}};
  const std::vector<uint8_t> shard_path_batch = {1, 1, 0, 0};
  const std::vector<uint8_t> hub_path_batch = {1, 0, 1, 1};
  const std::vector<NodeId> shard_path_successors = {1, 2};
  std::vector<NodeId> hub_path_successors = {1, 2};
  for (NodeId v = 20; v < 40; ++v) hub_path_successors.push_back(v);

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int64_t> rounds{0};
  std::atomic<int64_t> wrong{0};
  std::mutex reports_mutex;
  std::vector<std::string> reports;
  const auto mismatch = [&](const std::string& what) {
    wrong.fetch_add(1);
    std::lock_guard<std::mutex> lock(reports_mutex);
    if (reports.size() < 10) {
      reports.push_back(what + "; " + peer.DescribePair(0, 2));
    }
  };
  const auto reader = [&] {
    started.fetch_add(1);
    int64_t local_rounds = 0;
    do {
      if (!sharded.Reaches(0, 2)) mismatch("Reaches(0, 2) false");
      const std::vector<uint8_t> got = sharded.BatchReaches(batch);
      if (got != shard_path_batch && got != hub_path_batch) {
        mismatch("BatchReaches " + JoinIds({got.begin(), got.end()}));
      }
      const std::vector<NodeId> successors = sharded.Successors(0);
      if (successors != shard_path_successors &&
          successors != hub_path_successors) {
        mismatch("Successors(0) " + JoinIds(successors));
      }
      ++local_rounds;
    } while (!done.load());
    rounds.fetch_add(local_rounds);
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader);
  while (started.load() < 3) std::this_thread::yield();

  constexpr int kFlips = 2000;
  const int64_t promotions_before = sharded.MetricsView().hub_promotions;
  Random rng(61);
  std::vector<std::pair<NodeId, NodeId>> shortcuts;
  int shard_publishes = 0;
  for (int flip = 0; flip < kFlips; ++flip) {
    bool other_shard_dirty = false;
    const auto note_write = [&](NodeId u, NodeId v) {
      if (sharded.ShardOf(u) == sharded.ShardOf(v) && sharded.ShardOf(u) != 0) {
        other_shard_dirty = true;
      }
    };
    if (!shortcuts.empty() && rng.Uniform(2) == 0) {
      const size_t pick = rng.Uniform(shortcuts.size());
      const auto [u, v] = shortcuts[pick];
      EXPECT_TRUE(sharded.RemoveArc(u, v).ok());
      note_write(u, v);
      shortcuts[pick] = shortcuts.back();
      shortcuts.pop_back();
    } else {
      const NodeId u = 3 + static_cast<NodeId>(rng.Uniform(37));
      const NodeId v = 3 + static_cast<NodeId>(rng.Uniform(37));
      if (u + 1 < v && sharded.AddArc(u, v).ok()) {  // Else a duplicate.
        note_write(u, v);
        shortcuts.emplace_back(u, v);
      }
    }
    if (flip % 2 == 0) {
      FlipToHubPath(sharded);
    } else {
      FlipToShardPath(sharded);
    }
    if (other_shard_dirty) {
      sharded.Publish();
    } else {
      sharded.PublishShard(0);
      ++shard_publishes;
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  std::string described;
  for (const std::string& report : reports) described += "\n  " + report;
  EXPECT_EQ(wrong.load(), 0)
      << wrong.load() << " wrong answers in " << rounds.load()
      << " reader rounds over " << kFlips << " flips; the first:"
      << described;
  EXPECT_GT(rounds.load(), 0);
  EXPECT_GT(shard_publishes, 0);
  EXPECT_LT(shard_publishes, kFlips);
  EXPECT_GT(sharded.MetricsView().hub_promotions, promotions_before);
}

TEST(ShardedServiceTest, MetricsViewToStringIsMachineCheckable) {
  ShardedQueryService sharded(OptionsFor(2));
  ASSERT_TRUE(sharded.Load(RandomDag(40, 2.0, 3)).ok());
  const std::string s = sharded.MetricsView().ToString();
  EXPECT_NE(s.find("shards=2"), std::string::npos) << s;
  EXPECT_NE(s.find("nodes=40"), std::string::npos) << s;
  EXPECT_NE(s.find("boundary_republishes="), std::string::npos) << s;
}

// -----------------------------------------------------------------------
// Observability of the sharded front end: stage-attributed traces, the
// windowed rollup series layout, shard-attributed slow queries, and the
// flight recorder.

TEST(ShardedServiceTest, SampledSinglesCarryStageAttribution) {
  for (const int k : ShardCounts()) {
    ShardedServiceOptions options = OptionsFor(k);
    options.trace_sample_period = 1;  // Trace every query.
    ShardedQueryService sharded(options);
    ASSERT_TRUE(
        sharded.Load(ClusteredDag(std::max(2, 2 * k), 40, 2.5, 2, 0.1, 9))
            .ok());
    const NodeId n = static_cast<NodeId>(std::max(2, 2 * k) * 40);
    Random rng(17);
    for (int i = 0; i < 200; ++i) {
      (void)sharded.Reaches(static_cast<NodeId>(rng.Uniform(n)),
                            static_cast<NodeId>(rng.Uniform(n)));
    }
    const std::vector<TraceRecord> records = sharded.tracer().Drain();
    ASSERT_FALSE(records.empty()) << "k=" << k;
    for (const TraceRecord& r : records) {
      EXPECT_TRUE(r.has_stages) << "k=" << k;
      // Per-stage attribution must not exceed the end-to-end clock:
      // stages are timed inside the same interval that produced nanos.
      uint64_t stage_sum = 0;
      for (int s = 0; s < kNumQueryStages; ++s) stage_sum += r.stage_nanos[s];
      EXPECT_LE(stage_sum, static_cast<uint64_t>(r.nanos) + 1)
          << "k=" << k << " pair (" << r.source << "," << r.target << ")";
      // The deciding shard is in range or -1 (boundary-decided).
      EXPECT_GE(r.shard, -1);
      EXPECT_LT(r.shard, k);
    }
    // Shard-local decisions must attribute their shard at least once on
    // a clustered graph (most pairs are same-shard when k > 1; at k == 1
    // every in-range pair is shard 0).
    const bool any_shard_attributed =
        std::any_of(records.begin(), records.end(),
                    [](const TraceRecord& r) { return r.shard >= 0; });
    EXPECT_TRUE(any_shard_attributed) << "k=" << k;
  }
}

TEST(ShardedServiceTest, SampledBatchesEmitStageAttributedRecords) {
  ShardedServiceOptions options = OptionsFor(4);
  options.trace_sample_period = 1;
  ShardedQueryService sharded(options);
  ASSERT_TRUE(sharded.Load(ClusteredDag(8, 40, 2.5, 2, 0.1, 9)).ok());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Random rng(23);
  for (int i = 0; i < 512; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(320)),
                       static_cast<NodeId>(rng.Uniform(320)));
  }
  (void)sharded.BatchReaches(pairs);
  const std::vector<TraceRecord> records = sharded.tracer().Drain();
  ASSERT_FALSE(records.empty());
  int batch_records = 0;
  for (const TraceRecord& r : records) {
    if (!r.from_batch) continue;
    ++batch_records;
    EXPECT_TRUE(r.has_stages);
    uint64_t stage_sum = 0;
    for (int s = 0; s < kNumQueryStages; ++s) stage_sum += r.stage_nanos[s];
    // Batch records carry per-query averages floored per stage, so the
    // sum can only round down from the per-query share.
    EXPECT_LE(stage_sum, static_cast<uint64_t>(r.nanos) + 1);
  }
  EXPECT_GT(batch_records, 0);
}

TEST(ShardedServiceTest, RollupSeriesCoverStagesFrontEndAndShards) {
  for (const int k : ShardCounts()) {
    ShardedServiceOptions options = OptionsFor(k);
    options.trace_sample_period = 1;
    ShardedQueryService sharded(options);
    ASSERT_TRUE(
        sharded.Load(ClusteredDag(std::max(2, 2 * k), 40, 2.5, 2, 0.1, 9))
            .ok());
    const LatencyRollup& rollup = sharded.rollup();
    // Layout: one series per query stage, then "single", "batch", then
    // one per shard.
    ASSERT_EQ(rollup.num_series(), kNumQueryStages + 2 + k);
    for (int s = 0; s < kNumQueryStages; ++s) {
      EXPECT_EQ(rollup.series_name(s),
                QueryStageName(static_cast<QueryStage>(s)));
    }
    EXPECT_EQ(rollup.series_name(kNumQueryStages), "single");
    EXPECT_EQ(rollup.series_name(kNumQueryStages + 1), "batch");
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(rollup.series_name(kNumQueryStages + 2 + s),
                "shard" + std::to_string(s));
    }
    // Traffic lands in the front-end and per-shard series.  Self pairs
    // are answered at kRoute before shard routing, so every pair here
    // is distinct to make the shard attribution exactly total.
    const NodeId n = static_cast<NodeId>(std::max(2, 2 * k) * 40);
    Random rng(31);
    for (int i = 0; i < 100; ++i) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      NodeId v = static_cast<NodeId>(rng.Uniform(n));
      while (v == u) v = static_cast<NodeId>(rng.Uniform(n));
      (void)sharded.Reaches(u, v);
    }
    EXPECT_EQ(rollup.Window(kNumQueryStages, 1).count, 100) << "k=" << k;
    int64_t shard_total = 0;
    for (int s = 0; s < k; ++s) {
      shard_total += rollup.Window(kNumQueryStages + 2 + s, 1).count;
    }
    EXPECT_EQ(shard_total, 100) << "k=" << k;
  }
}

TEST(ShardedServiceTest, SlowSinglesAreShardAttributed) {
  ShardedServiceOptions options = OptionsFor(2);
  options.slow_query_micros = 1;  // 1 us: the lowest enabled threshold.
  // Only sampled singles are timed, so sample every one.
  options.trace_sample_period = 1;
  ShardedQueryService sharded(options);
  ASSERT_TRUE(sharded.Load(ClusteredDag(4, 40, 2.5, 2, 0.1, 9)).ok());
  // Typical singles run a few hundred nanos; one crosses 1 us when a
  // timer interrupt or preemption lands inside it.  20k probes span about
  // one scheduler tick, which left that to chance (about a quarter of
  // runs saw no slow single), so probe until one is recorded, with a cap
  // of about a second.
  Random rng(53);
  for (int i = 0; i < 2000000 && sharded.slow_log().TotalRecorded() == 0;
       ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(160));
    NodeId v = static_cast<NodeId>(rng.Uniform(160));
    while (v == u) v = static_cast<NodeId>(rng.Uniform(160));
    (void)sharded.Reaches(u, v);
  }
  const std::vector<SlowQueryEntry> entries = sharded.slow_log().Recent();
  ASSERT_FALSE(entries.empty());
  const SlowQueryEntry& e = entries.back();
  EXPECT_FALSE(e.is_batch);
  EXPECT_GE(e.source_shard, 0);
  EXPECT_LT(e.source_shard, 2);
  EXPECT_GE(e.target_shard, 0);
  EXPECT_LT(e.target_shard, 2);
  EXPECT_EQ(e.cross_shard, e.source_shard != e.target_shard);
  EXPECT_NE(e.ToString().find("shards=("), std::string::npos);
}

TEST(ShardedServiceTest, FlightRecorderCapturesOnForceAndPublishStall) {
  ShardedServiceOptions options = OptionsFor(2);
  options.trace_sample_period = 1;
  // A 1 us stall threshold: the next publish always "stalls" (0 would
  // disable the detector).
  options.flight.publish_stall_micros = 1;
  ShardedQueryService sharded(options);
  ASSERT_TRUE(sharded.Load(ClusteredDag(4, 40, 2.5, 2, 0.1, 9)).ok());
  // Load's initial publish already ran before the recorder had a
  // baseline; drive one explicit publish to exercise NotePublish.
  ASSERT_TRUE(sharded.AddLeafUnder(0).ok());
  sharded.Publish();
  EXPECT_GE(sharded.flight_recorder().TotalTriggered(), 1);
  const std::vector<FlightCapture> captures =
      sharded.flight_recorder().Captures();
  ASSERT_FALSE(captures.empty());
  EXPECT_EQ(captures.back().reason, "publish_stall");
  // Window rows cover every rollup series x exported window.
  EXPECT_EQ(captures.back().windows.size(),
            static_cast<size_t>(sharded.rollup().num_series()) *
                LatencyRollup::WindowMinutes().size());
  // A forced capture freezes sampled traces into the payload.
  Random rng(41);
  for (int i = 0; i < 50; ++i) {
    (void)sharded.Reaches(static_cast<NodeId>(rng.Uniform(160)),
                          static_cast<NodeId>(rng.Uniform(160)));
  }
  ASSERT_TRUE(sharded.flight_recorder().ForceCapture("forced_test_trigger"));
  const FlightCapture last = sharded.flight_recorder().Captures().back();
  EXPECT_EQ(last.reason, "forced_test_trigger");
  EXPECT_FALSE(last.traces.empty());
  EXPECT_FALSE(last.metrics.empty());
  const std::string json = sharded.flight_recorder().ToJson();
  EXPECT_NE(json.find("\"reason\":\"forced_test_trigger\""),
            std::string::npos);
  EXPECT_NE(json.find("\"stages\":{"), std::string::npos);
}

}  // namespace
}  // namespace trel

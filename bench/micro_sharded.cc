// Sharded write-path shootout (DESIGN.md §"Sharded query service"): on
// the clustered 50k-node DAG the partitioner exists for, measure a full
// publish of the corpus (end-to-end Load: closure build + export +
// arena + swap) and a steady-state republish under the default publish
// policy — one dirty leaf per shard, so a delta publish (DESIGN.md §4c)
// — through the monolithic QueryService against the sharded service at
// K in {1,2,4}, whose one writer publishes every shard and a root.  It
// also measures the read-side toll the boundary layer charges: single
// Reaches and 4096-pair BatchReaches latency at K=4 over K=1, read right
// after Load, on overlay-free snapshots, after one untimed pass.  The
// hot-metrics manifest gates the k4-over-mono Load speedup (direction
// "higher"; the acceptance bar is >= 2x at full size) and both
// read-latency ratios (the bar is within 2x of single-shard).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "service/query_service.h"
#include "service/sharded_service.h"

namespace {

using namespace trel;
using bench_util::Fmt;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One representative parent per shard, so every rep dirties every
// shard before the publish.
std::vector<NodeId> ParentPerShard(const ShardedQueryService& service,
                                   NodeId num_nodes) {
  std::vector<NodeId> parents(static_cast<size_t>(service.num_shards()),
                              kNoNode);
  for (NodeId v = 0; v < num_nodes; ++v) {
    NodeId& slot = parents[static_cast<size_t>(service.ShardOf(v))];
    if (slot == kNoNode) slot = v;
  }
  return parents;
}

struct PublishRun {
  double load_ms = 0.0;
  double republish_ms = 0.0;  // Best-of-reps default republish.
};

// Monolithic baseline: end-to-end Load, then best-of-reps default
// publishes, each preceded by one dirty leaf so Publish() cannot no-op.
PublishRun MeasureMonoPublish(const Digraph& graph, int reps) {
  QueryService service;
  PublishRun run;
  auto start = std::chrono::steady_clock::now();
  TREL_CHECK(service.Load(graph).ok());
  run.load_ms = MsSince(start);
  for (int r = 0; r < reps; ++r) {
    TREL_CHECK(service.AddLeafUnder(0).ok());
    start = std::chrono::steady_clock::now();
    service.Publish();
    const double ms = MsSince(start);
    if (r == 0 || ms < run.republish_ms) run.republish_ms = ms;
  }
  return run;
}

// End-to-end sharded Load of the corpus.
double MeasureShardedLoad(ShardedQueryService* service, const Digraph& graph) {
  const auto start = std::chrono::steady_clock::now();
  TREL_CHECK(service->Load(graph).ok());
  return MsSince(start);
}

// Sharded write path: dirty every shard, then publish the K shards and
// one root from the calling thread.
double MeasureShardedRepublish(ShardedQueryService* service, NodeId num_nodes,
                               int reps) {
  double best_ms = 0.0;
  const std::vector<NodeId> parents = ParentPerShard(*service, num_nodes);
  for (int r = 0; r < reps; ++r) {
    for (NodeId parent : parents) {
      if (parent != kNoNode) TREL_CHECK(service->AddLeafUnder(parent).ok());
    }
    const auto start = std::chrono::steady_clock::now();
    service->Publish();
    const double ms = MsSince(start);
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

struct ReadRun {
  double single_us = 0.0;          // Per single Reaches().
  double batch_us_per_pair = 0.0;  // Per pair inside 4096-pair batches.
};

ReadRun MeasureReads(const ShardedQueryService& service, NodeId num_nodes,
                     int64_t singles, int batches, int batch_size,
                     uint64_t seed) {
  Random rng(seed);
  auto pick = [&]() {
    return static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(num_nodes)));
  };
  ReadRun run;
  uint64_t sink = 0;  // Defeats dead-code elimination of the queries.
  auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < singles; ++i) {
    sink += service.Reaches(pick(), pick()) ? 1 : 0;
  }
  run.single_us = MsSince(start) * 1000.0 / static_cast<double>(singles);
  std::vector<std::pair<NodeId, NodeId>> pairs(
      static_cast<size_t>(batch_size));
  double batch_ms = 0.0;
  for (int b = 0; b < batches; ++b) {
    for (auto& p : pairs) p = {pick(), pick()};
    start = std::chrono::steady_clock::now();
    const std::vector<uint8_t> bits = service.BatchReaches(pairs);
    batch_ms += MsSince(start);
    for (uint8_t bit : bits) sink += bit;
  }
  run.batch_us_per_pair =
      batch_ms * 1000.0 /
      static_cast<double>(static_cast<int64_t>(batches) * batch_size);
  if (sink == 0xffffffffffffffffULL) std::printf("unreachable\n");
  return run;
}

}  // namespace

int main() {
  const bool smoke = bench_util::SmokeMode();
  // Full size: 16 clusters of 3125 nodes (50k total, ~150k arcs) with 3
  // gateways per cluster and 8% cross-cluster arcs — the partitioner's
  // home turf.  Smoke keeps the shape at 1/25 the cluster size.
  const int num_clusters = 16;
  const NodeId cluster_size = smoke ? 125 : 3125;
  const double avg_degree = 3.0;
  const int gateways = 3;
  const double cross_fraction = 0.08;
  const int reps = static_cast<int>(bench_util::ScaleReps(3));
  const int64_t singles = smoke ? 2000 : 20000;
  const int batches = smoke ? 2 : 8;
  const int batch_size = 4096;
  const Digraph graph = ClusteredDag(num_clusters, cluster_size, avg_degree,
                                     gateways, cross_fraction, /*seed=*/17);

  const PublishRun mono = MeasureMonoPublish(graph, reps);

  const std::vector<int> shard_counts = {1, 2, 4};
  std::vector<PublishRun> sharded_runs(shard_counts.size());
  std::vector<std::unique_ptr<ShardedQueryService>> services;
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    ShardedServiceOptions options;
    options.num_shards = shard_counts[i];
    services.push_back(std::make_unique<ShardedQueryService>(options));
    sharded_runs[i].load_ms = MeasureShardedLoad(services.back().get(), graph);
  }

  // Reads run on the snapshots Load published, before the republishes
  // below lay delta overlays over them.  Each service gets one untimed
  // pass first: the first reads after a Load run two to three times slower
  // than later ones, which would bias the K=4 over K=1 ratios.
  const NodeId n = graph.NumNodes();
  for (const int s : {0, 2}) {
    MeasureReads(*services[s], n, singles, batches, batch_size, /*seed=*/5);
  }
  const ReadRun read_k1 =
      MeasureReads(*services[0], n, singles, batches, batch_size, /*seed=*/5);
  const ReadRun read_k4 =
      MeasureReads(*services[2], n, singles, batches, batch_size, /*seed=*/5);
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    sharded_runs[i].republish_ms =
        MeasureShardedRepublish(services[i].get(), n, reps);
  }

  // Full-corpus publish throughput: end-to-end Load is the honest
  // measure (closure build + export + arena + swap for the whole graph);
  // the republish column times the steady-state publish under the
  // default policy, a delta of the dirty leaves over each base arena.
  const double load_speedup = mono.load_ms / sharded_runs[2].load_ms;
  const double republish_speedup =
      mono.republish_ms / sharded_runs[2].republish_ms;
  const double single_ratio = read_k4.single_us / read_k1.single_us;
  const double batch_ratio =
      read_k4.batch_us_per_pair / read_k1.batch_us_per_pair;

  std::printf("Sharded write path on ClusteredDag(%d, %d, %.1f, %d, %.2f): "
              "%d nodes, %lld arcs\n\n",
              num_clusters, static_cast<int>(cluster_size), avg_degree,
              gateways, cross_fraction, static_cast<int>(n),
              static_cast<long long>(graph.NumArcs()));
  bench_util::Table table({"config", "load_ms", "default_republish_ms"});
  table.AddRow({"mono", Fmt(mono.load_ms), Fmt(mono.republish_ms)});
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    table.AddRow({"k" + std::to_string(shard_counts[i]),
                  Fmt(sharded_runs[i].load_ms),
                  Fmt(sharded_runs[i].republish_ms)});
  }
  table.Print();
  std::printf("\nfull publish speedup (mono/k4 load):  %.2fx\n", load_speedup);
  std::printf("default republish speedup (mono/k4):  %.2fx\n",
              republish_speedup);
  std::printf("single Reaches us (k1, k4):  %.3f, %.3f (ratio %.2fx)\n",
              read_k1.single_us, read_k4.single_us, single_ratio);
  std::printf("batch us/pair (k1, k4):      %.3f, %.3f (ratio %.2fx)\n",
              read_k1.batch_us_per_pair, read_k4.batch_us_per_pair,
              batch_ratio);

  bench_util::BenchReport report("micro_sharded");
  report.config()
      .Set("smoke", smoke)
      .Set("num_clusters", num_clusters)
      .Set("cluster_size", static_cast<int64_t>(cluster_size))
      .Set("avg_degree", avg_degree)
      .Set("gateways", gateways)
      .Set("cross_fraction", cross_fraction)
      .Set("nodes", static_cast<int64_t>(n))
      .Set("arcs", graph.NumArcs())
      .Set("reps", reps)
      .Set("singles", singles)
      .Set("batches", batches)
      .Set("batch_size", batch_size);
  report.AddRow()
      .Set("name", "publish/mono")
      .Set("load_ms", mono.load_ms)
      .Set("default_republish_ms", mono.republish_ms);
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    report.AddRow()
        .Set("name", "publish/k" + std::to_string(shard_counts[i]))
        .Set("load_ms", sharded_runs[i].load_ms)
        .Set("default_republish_ms", sharded_runs[i].republish_ms);
  }
  report.AddRow()
      .Set("name", "read/k1")
      .Set("single_us", read_k1.single_us)
      .Set("batch_us_per_pair", read_k1.batch_us_per_pair);
  report.AddRow()
      .Set("name", "read/k4")
      .Set("single_us", read_k4.single_us)
      .Set("batch_us_per_pair", read_k4.batch_us_per_pair);
  // The gated rows: partitioned full publishes must stay ahead of the
  // monolith, and the boundary layer's read toll must not creep.
  report.AddRow()
      .Set("name", "publish/k4_over_mono")
      .Set("load_speedup", load_speedup)
      .Set("default_republish_speedup", republish_speedup);
  report.AddRow()
      .Set("name", "read/k4_over_k1")
      .Set("single_ratio", single_ratio)
      .Set("batch_ratio", batch_ratio);
  if (!report.WriteIfEnabled()) return 1;
  return 0;
}

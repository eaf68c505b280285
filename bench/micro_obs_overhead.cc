// Observability overhead microbenchmarks: the tracing-off acceptance
// budget is < 1% on single Reaches and on a 4096-query batch (DESIGN.md
// §5), so the sample_period=0 rows here are gated by bench_diff.py and
// the sampled rows (1-in-1024, 1-in-64) document what turning the
// tracer on actually costs.  google-benchmark binary.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/gbench_report.h"
#include "common/random.h"
#include "graph/generators.h"
#include "service/query_service.h"
#include "service/sharded_service.h"

namespace trel {
namespace {

// One service per graph size, shared by every benchmark of that size.
QueryService* SharedService(int64_t nodes, double degree) {
  static QueryService* service = nullptr;
  static int64_t built_nodes = -1;
  if (built_nodes != nodes) {
    delete service;
    service = new QueryService();
    if (!service->Load(RandomDag(static_cast<NodeId>(nodes), degree, 8000))
             .ok()) {
      return nullptr;
    }
    built_nodes = nodes;
  }
  return service;
}

void SmokeOrFull(benchmark::internal::Benchmark* b,
                 const std::vector<std::vector<int64_t>>& full_args,
                 const std::vector<int64_t>& smoke_args) {
  if (bench_util::SmokeMode()) {
    b->Args(smoke_args)->Iterations(20);
    return;
  }
  for (const auto& args : full_args) b->Args(args);
}

// Args: {nodes, degree, sample_period}.  Period 0 is the default
// tracing-off configuration whose cost must stay within 1% of the
// pre-obs service Reaches path.  Each iteration answers a block of 512
// single queries so the timed quantum is microseconds — one query per
// iteration is too short for the 20-iteration smoke gate to be stable.
void BM_ServiceReaches(benchmark::State& state) {
  constexpr int kQueriesPerIter = 512;
  QueryService* service =
      SharedService(state.range(0), static_cast<double>(state.range(1)));
  if (service == nullptr) {
    state.SkipWithError("service load failed");
    return;
  }
  service->tracer().SetSamplePeriod(
      static_cast<uint32_t>(state.range(2)));
  Random rng(1);
  const NodeId n = service->Snapshot()->NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(kQueriesPerIter);
  for (int i = 0; i < kQueriesPerIter; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
  }
  // Untimed warmup: fault in the arena pages and warm the caches, or
  // the first of 20 smoke iterations dominates the measurement.
  for (const auto& [u, v] : pairs) {
    benchmark::DoNotOptimize(service->Reaches(u, v));
  }
  for (auto _ : state) {
    for (const auto& [u, v] : pairs) {
      benchmark::DoNotOptimize(service->Reaches(u, v));
    }
  }
  service->tracer().SetSamplePeriod(0);
  state.SetItemsProcessed(state.iterations() * kQueriesPerIter);
}
BENCHMARK(BM_ServiceReaches)->Apply([](benchmark::internal::Benchmark* b) {
  SmokeOrFull(b, {{50000, 4, 0}, {50000, 4, 1024}, {50000, 4, 64}},
              {200, 2, 0});
});

// Args: {nodes, degree, batch_size, sample_period}.  One iteration
// answers the whole batch; ops are individual lookups.  A sampled batch
// pays the per-query tag array plus up to 32 trace records, amortized
// over `period` batches.
void BM_ServiceBatchReaches(benchmark::State& state) {
  QueryService* service =
      SharedService(state.range(0), static_cast<double>(state.range(1)));
  if (service == nullptr) {
    state.SkipWithError("service load failed");
    return;
  }
  const int64_t batch = state.range(2);
  service->tracer().SetSamplePeriod(
      static_cast<uint32_t>(state.range(3)));
  Random rng(1);
  const NodeId n = service->Snapshot()->NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(batch);
  for (int64_t i = 0; i < batch; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
  }
  benchmark::DoNotOptimize(service->BatchReaches(pairs));  // untimed warmup
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->BatchReaches(pairs));
  }
  service->tracer().SetSamplePeriod(0);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ServiceBatchReaches)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SmokeOrFull(b,
                  {{50000, 4, 4096, 0},
                   {50000, 4, 4096, 1024},
                   {50000, 4, 4096, 64},
                   {50000, 4, 128, 0}},
                  {200, 2, 4096, 0});
    });

// A clustered graph is the sharded front end's home shape; K=4 with
// 2K clusters keeps most pairs shard-local while the gateways keep the
// boundary bitset and hub core on the path.
ShardedQueryService* SharedShardedService(int64_t clusters,
                                          int64_t cluster_size) {
  static ShardedQueryService* service = nullptr;
  static int64_t built_clusters = -1;
  if (built_clusters != clusters) {
    delete service;
    ShardedServiceOptions options;
    options.num_shards = 4;
    service = new ShardedQueryService(options);
    if (!service
             ->Load(ClusteredDag(static_cast<int>(clusters),
                                 static_cast<NodeId>(cluster_size), 3.0,
                                 /*gateways=*/3, /*cross_fraction=*/0.08,
                                 8000))
             .ok()) {
      return nullptr;
    }
    built_clusters = clusters;
  }
  return service;
}

// Args: {clusters, cluster_size, sample_period}.  The sharded front end
// always times singles end-to-end (two clock reads feed the rollup and
// the slow log), so the period=0 row budgets that steady-state cost and
// the period=64 row adds per-stage attribution on sampled queries.
void BM_ShardedServiceReaches(benchmark::State& state) {
  constexpr int kQueriesPerIter = 512;
  ShardedQueryService* service =
      SharedShardedService(state.range(0), state.range(1));
  if (service == nullptr) {
    state.SkipWithError("sharded service load failed");
    return;
  }
  service->tracer().SetSamplePeriod(static_cast<uint32_t>(state.range(2)));
  Random rng(1);
  const NodeId n = static_cast<NodeId>(state.range(0) * state.range(1));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(kQueriesPerIter);
  for (int i = 0; i < kQueriesPerIter; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
  }
  for (const auto& [u, v] : pairs) {
    benchmark::DoNotOptimize(service->Reaches(u, v));  // untimed warmup
  }
  for (auto _ : state) {
    for (const auto& [u, v] : pairs) {
      benchmark::DoNotOptimize(service->Reaches(u, v));
    }
  }
  service->tracer().SetSamplePeriod(0);
  state.SetItemsProcessed(state.iterations() * kQueriesPerIter);
}
BENCHMARK(BM_ShardedServiceReaches)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SmokeOrFull(b, {{8, 6250, 0}, {8, 6250, 64}}, {8, 25, 0});
    });

// Args: {clusters, cluster_size, batch_size, sample_period}.  Batches
// are always stage-timed (a handful of clock reads per batch); sampling
// adds the per-pair tag vector and up to 32 strided trace records.
void BM_ShardedServiceBatchReaches(benchmark::State& state) {
  ShardedQueryService* service =
      SharedShardedService(state.range(0), state.range(1));
  if (service == nullptr) {
    state.SkipWithError("sharded service load failed");
    return;
  }
  const int64_t batch = state.range(2);
  service->tracer().SetSamplePeriod(static_cast<uint32_t>(state.range(3)));
  Random rng(1);
  const NodeId n = static_cast<NodeId>(state.range(0) * state.range(1));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(batch);
  for (int64_t i = 0; i < batch; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
  }
  benchmark::DoNotOptimize(service->BatchReaches(pairs));  // untimed warmup
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->BatchReaches(pairs));
  }
  service->tracer().SetSamplePeriod(0);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ShardedServiceBatchReaches)
    ->Apply([](benchmark::internal::Benchmark* b) {
      SmokeOrFull(b, {{8, 6250, 4096, 0}, {8, 6250, 4096, 64}},
                  {8, 25, 4096, 0});
    });

}  // namespace
}  // namespace trel

int main(int argc, char** argv) {
  return trel::bench_util::RunBenchmarksWithJson("micro_obs_overhead", argc,
                                                 argv);
}

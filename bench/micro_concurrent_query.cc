// Concurrent snapshot-query throughput: aggregate reachability QPS as
// reader threads scale from 1 to 8 while a single writer keeps growing
// the graph and publishing fresh snapshots.  Readers never lock — each
// acquires a snapshot handle, runs a block of point queries against it,
// then re-acquires — so aggregate throughput should scale with cores.
//
// The printed speedup is measured, not modeled: it can grow only up to
// the host's core count, and thread counts past it share cores.  Readers
// here hold snapshot handles; perfbench's service.reaches_4t_ns times
// QueryService::Reaches itself across threads.
//
// A second section measures publish latency with delta publication on vs
// off: 10-arc update batches against a large DAG, where a delta publish
// ships only the dirty nodes as an overlay (see DESIGN.md §4c) and a full
// publish folds them into a copy of the previous base arena.  Every
// measured full publish folds: only the Load before them rebuilds.
//
// Usage: micro_concurrent_query [nodes] [seconds_per_config] [publish_nodes]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "service/query_service.h"

namespace trel {
namespace {

struct RunResult {
  int64_t queries = 0;
  double seconds = 0;
  uint64_t epochs_published = 0;
};

// Readers hammer point queries against snapshot handles (re-acquired
// every kBlock queries); the writer adds leaves and publishes as fast
// as it can.  Returns aggregate numbers over `duration_seconds`.
RunResult RunConfig(QueryService& service, int num_readers,
                    double duration_seconds) {
  constexpr int kBlock = 1024;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> hit_sink{0};  // Consumes results: no dead-code elim.
  std::vector<int64_t> counts(num_readers, 0);

  auto reader = [&](int id) {
    Random rng(static_cast<uint64_t>(id) * 7919 + 1);
    int64_t queries = 0;
    int64_t hits = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto snapshot = service.Snapshot();
      const NodeId n = snapshot->NumNodes();
      for (int i = 0; i < kBlock; ++i) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(n));
        const NodeId v = static_cast<NodeId>(rng.Uniform(n));
        if (snapshot->Reaches(u, v)) ++hits;
      }
      queries += kBlock;
    }
    counts[id] = queries;
    hit_sink.fetch_add(hits, std::memory_order_relaxed);
  };

  const uint64_t epoch_before = service.Snapshot()->epoch;
  std::vector<std::thread> threads;
  threads.reserve(num_readers + 1);
  for (int t = 0; t < num_readers; ++t) threads.emplace_back(reader, t);

  std::thread writer([&] {
    Random rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      for (int j = 0; j < 8; ++j) {
        const NodeId parent = static_cast<NodeId>(
            rng.Uniform(service.Snapshot()->NumNodes()));
        (void)service.AddLeafUnder(parent);
      }
      service.Publish();
    }
  });

  Stopwatch timer;
  while (timer.ElapsedMicros() < static_cast<int64_t>(duration_seconds * 1e6)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  writer.join();

  RunResult result;
  result.seconds = static_cast<double>(timer.ElapsedMicros()) / 1e6;
  for (int64_t c : counts) result.queries += c;
  result.epochs_published = service.Snapshot()->epoch - epoch_before;
  return result;
}

struct PublishResult {
  int publishes = 0;
  double mean_micros = 0;
  double mean_delta_entries = 0;
};

// Applies `batches` update batches of `arcs_per_batch` random arcs each,
// publishing after every batch, and returns the mean wall-clock publish
// latency.  The same seed is used for both modes so they replay the same
// arc sequence.  The service gets no worker pool: the fold every
// measured full publish takes is serial.
PublishResult RunPublishConfig(NodeId nodes, bool delta_publish, int batches,
                               int arcs_per_batch) {
  ServiceOptions options;
  options.num_workers = 0;
  options.stats_on_publish = false;
  options.delta_publish = delta_publish;
  options.max_delta_publishes = batches + 1;  // No forced fulls mid-run.
  QueryService service(options);
  Status status = service.Load(RandomDag(nodes, 2.0, 8200));
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.message().c_str());
    std::exit(1);
  }

  Random rng(51);
  PublishResult result;
  int64_t total_micros = 0;
  int64_t total_entries = 0;
  for (int b = 0; b < batches; ++b) {
    int added = 0;
    while (added < arcs_per_batch) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(nodes));
      const NodeId v = static_cast<NodeId>(rng.Uniform(nodes));
      if (service.AddArc(u, v).ok()) ++added;  // Cycles/dups re-rolled.
    }
    Stopwatch watch;
    service.Publish();
    total_micros += watch.ElapsedMicros();
    total_entries += service.Snapshot()->delta_entries;
  }
  result.publishes = batches;
  result.mean_micros = static_cast<double>(total_micros) / batches;
  result.mean_delta_entries = static_cast<double>(total_entries) / batches;
  return result;
}

}  // namespace
}  // namespace trel

int main(int argc, char** argv) {
  using namespace trel;
  const int64_t nodes =
      argc > 1 ? std::atoll(argv[1]) : bench_util::ScaleN(100000);
  const double seconds =
      argc > 2 ? std::atof(argv[2]) : bench_util::ScaleSeconds(1.5);
  const int64_t publish_nodes =
      argc > 3 ? std::atoll(argv[3]) : bench_util::ScaleN(50000);
  if (nodes <= 0 || seconds <= 0 || publish_nodes <= 0) {
    std::fprintf(stderr,
                 "usage: micro_concurrent_query [nodes>0] [seconds>0] "
                 "[publish_nodes>0]\n");
    return 2;
  }

  std::printf("# micro_concurrent_query: %lld-node DAG, %.1fs per config, "
              "%u hardware threads\n",
              static_cast<long long>(nodes), seconds,
              std::thread::hardware_concurrency());

  ServiceOptions options;
  options.num_workers = 0;          // Readers query snapshots directly.
  options.stats_on_publish = false;  // Keep the writer's publish loop lean.
  QueryService service(options);
  {
    Stopwatch timer;
    Digraph graph = RandomDag(static_cast<NodeId>(nodes), 2.0, 8000);
    Status status = service.Load(graph);
    if (!status.ok()) {
      std::fprintf(stderr, "load failed: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("# load+index: %.2fs\n",
                static_cast<double>(timer.ElapsedMicros()) / 1e6);
  }

  bench_util::Table table(
      {"readers", "queries", "Mqps", "speedup_vs_1", "snapshots_published"});
  double baseline_qps = 0;
  const std::vector<int> reader_counts =
      bench_util::SmokeMode() ? std::vector<int>{1, 2}
                              : std::vector<int>{1, 2, 4, 8};
  for (int readers : reader_counts) {
    RunResult r = RunConfig(service, readers, seconds);
    const double qps = static_cast<double>(r.queries) / r.seconds;
    if (readers == 1) baseline_qps = qps;
    table.AddRow({bench_util::Fmt(static_cast<int64_t>(readers)),
                  bench_util::Fmt(r.queries), bench_util::Fmt(qps / 1e6),
                  bench_util::Fmt(baseline_qps > 0 ? qps / baseline_qps : 0.0),
                  bench_util::Fmt(static_cast<int64_t>(r.epochs_published))});
  }
  table.Print();

  // --- Publish latency: full (folding) publish vs delta overlay -----------
  const int batches = static_cast<int>(bench_util::ScaleReps(30, 3));
  const int arcs_per_batch = 10;
  std::printf(
      "\n# publish latency: %lld-node DAG, %d-arc update batches, "
      "%d publishes per mode\n",
      static_cast<long long>(publish_nodes), arcs_per_batch, batches);
  PublishResult full = RunPublishConfig(static_cast<NodeId>(publish_nodes),
                                        /*delta_publish=*/false, batches,
                                        arcs_per_batch);
  PublishResult delta = RunPublishConfig(static_cast<NodeId>(publish_nodes),
                                         /*delta_publish=*/true, batches,
                                         arcs_per_batch);
  bench_util::Table publish_table(
      {"mode", "publishes", "mean_us", "delta_entries_mean"});
  publish_table.AddRow({"full", bench_util::Fmt(int64_t{full.publishes}),
                        bench_util::Fmt(full.mean_micros),
                        bench_util::Fmt(full.mean_delta_entries)});
  publish_table.AddRow({"delta", bench_util::Fmt(int64_t{delta.publishes}),
                        bench_util::Fmt(delta.mean_micros),
                        bench_util::Fmt(delta.mean_delta_entries)});
  publish_table.Print();
  std::printf("full/delta publish speedup: %.1fx\n",
              delta.mean_micros > 0 ? full.mean_micros / delta.mean_micros
                                    : 0.0);

  bench_util::BenchReport report("micro_concurrent_query");
  report.config()
      .Set("nodes", nodes)
      .Set("seconds_per_config", seconds)
      .Set("publish_nodes", publish_nodes)
      .Set("publish_batches", batches)
      .Set("arcs_per_batch", arcs_per_batch)
      .Set("smoke", bench_util::SmokeMode());
  report.AddTable(table.headers(), table.rows());
  report.AddTable(publish_table.headers(), publish_table.rows());
  return report.WriteIfEnabled() ? 0 : 1;
}

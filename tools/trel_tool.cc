// Command-line front end for the library: generate workloads, compress
// edge lists into on-disk interval stores, query them, and report storage
// statistics.
//
//   trel_tool generate random <nodes> <avg_degree> <seed>   > graph.el
//   trel_tool generate tree <nodes> <seed>                  > graph.el
//   trel_tool stats <graph.el>
//   trel_tool compress <graph.el> <closure.db>
//   trel_tool query <closure.db> <from> <to>
//   trel_tool dot <graph.el>                                > graph.dot

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chain_cover.h"
#include "core/chain_propagator.h"
#include "core/dynamic_closure.h"
#include "baselines/inverse_closure.h"
#include "core/closure_stats.h"
#include "core/compressed_closure.h"
#include "core/hop_label_index.h"
#include "core/index_family.h"
#include "core/simd_dispatch.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/reachability.h"
#include "obs/http_server.h"
#include "relational/alpha.h"
#include "relational/csv.h"
#include "graph/partition.h"
#include "service/exposition.h"
#include "service/query_service.h"
#include "service/sharded_service.h"
#include "storage/buffer_pool.h"
#include "storage/closure_store.h"
#include "storage/page_store.h"

namespace {

using namespace trel;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  trel_tool generate random <nodes> <avg_degree> <seed>\n"
      "  trel_tool generate tree <nodes> <seed>\n"
      "  trel_tool generate bipartite <top> <bottom>\n"
      "  trel_tool generate chained <chains> <length> <avg_degree> <seed>\n"
      "  trel_tool generate clustered <clusters> <size> <avg_degree> "
      "<gateways> <cross_fraction> <seed>\n"
      "  trel_tool stats <graph.el>\n"
      "  trel_tool compress <graph.el> <closure.db>\n"
      "  trel_tool query <closure.db> <from> <to>\n"
      "  trel_tool dot <graph.el>\n"
      "  trel_tool alpha <relation.csv> <src-col> <dst-col> <from> <to>\n"
      "  trel_tool successors <relation.csv> <src-col> <dst-col> <from>\n"
      "  trel_tool simd\n"
      "  trel_tool index <graph.el>\n"
      "  trel_tool chains <graph.el>\n"
      "  trel_tool metricsz <graph.el>\n"
      "  trel_tool tracez <graph.el> [sample_period]\n"
      "  trel_tool flightz <graph.el> [num_shards]\n"
      "  trel_tool serve <graph.el> <port> [duration_s]\n"
      "  trel_tool partition <graph.el> [num_shards]\n"
      "  trel_tool serve-sharded <graph.el> <num_shards> <port> "
      "[duration_s]\n"
      "\n"
      "environment:\n"
      "  TREL_SIMD   force a query-kernel level (scalar|avx2|auto)\n"
      "  TREL_INDEX  force the snapshot index family\n"
      "              (intervals|hop|auto); unknown values mean auto\n"
      "  TREL_TRACE_SAMPLE  sample 1-in-N queries into the tracer\n"
      "  TREL_FLIGHT_TEST_TRIGGER  force one flight-recorder capture after\n"
      "              serve/serve-sharded warmup (CI /flightz validation)\n");
  return 2;
}

// Prints the SIMD dispatch state and verifies it is sound: the active
// kernel level must never exceed what the host can execute, and a
// TREL_SIMD request for a host-supported level must be honored exactly.
// CI's --simd-matrix stage runs this under each level (see tools/ci.sh).
int SimdInfo() {
  const SimdLevel supported = HighestSupportedSimdLevel();
  const SimdLevel requested = RequestedSimdLevel(supported);
  const SimdLevel active = ActiveSimdLevel();
  const char* env = std::getenv("TREL_SIMD");
  std::printf("requested=%s supported=%s active=%s\n",
              env != nullptr ? SimdLevelName(requested) : "auto",
              SimdLevelName(supported), SimdLevelName(active));
  if (static_cast<int>(active) > static_cast<int>(supported)) {
    std::fprintf(stderr,
                 "simd: dispatcher picked %s but the host only supports %s\n",
                 SimdLevelName(active), SimdLevelName(supported));
    return 1;
  }
  const SimdLevel expected =
      static_cast<int>(requested) <= static_cast<int>(supported) ? requested
                                                                 : supported;
  if (active != expected) {
    std::fprintf(stderr, "simd: dispatcher picked %s, expected %s\n",
                 SimdLevelName(active), SimdLevelName(expected));
    return 1;
  }
  return 0;
}

// Prints the family selector's signals and decision for a graph, plus
// what each family would cost in label bytes — the offline twin of the
// choice PublishLocked makes, so operators can predict (and CI can pin)
// what a snapshot of this graph will serve from.  Honors TREL_INDEX the
// same way the service does.
int IndexInfo(const Digraph& graph) {
  auto closure = CompressedClosure::Build(graph);
  if (!closure.ok()) {
    std::cerr << closure.status() << "\n";
    return 1;
  }
  FamilySignals signals;
  const IndexFamily picked =
      SelectIndexFamily(graph, closure->TotalIntervals(), &signals);
  const IndexFamilySetting setting = IndexFamilySettingFromEnv();
  const IndexFamily resolved =
      ResolveIndexFamily(setting, graph, closure->TotalIntervals());
  const HopLabelIndex hop = HopLabelIndex::Build(graph);
  const char* env = std::getenv("TREL_INDEX");

  std::printf("nodes:             %d\n", signals.num_nodes);
  std::printf("arcs:              %lld\n",
              static_cast<long long>(signals.num_arcs));
  std::printf("total intervals:   %lld\n",
              static_cast<long long>(signals.total_intervals));
  std::printf("interval blowup:   %.2f  (hop needs above %.1f)\n",
              signals.interval_blowup, kMaxIntervalBlowup);
  std::printf("hub arc fraction:  %.3f  (hop needs at or above %.2f, "
              "top-%d hubs)\n",
              signals.hub_arc_fraction, kMinHubArcFraction, kHubProbe);
  std::printf("label bytes:       intervals=%lld hop=%lld\n",
              static_cast<long long>(closure->ArenaByteSize()),
              static_cast<long long>(hop.LabelBytes()));
  std::printf("selector picks:    %s\n", IndexFamilyName(picked));
  std::printf("TREL_INDEX:        %s\n", env != nullptr ? env : "(unset)");
  std::printf("service would use: %s\n", IndexFamilyName(resolved));
  return 0;
}

// Prints the chain analyzer's signals and the publish tier a service
// Load of this graph would build with — the offline twin of
// QueryService::Load's choice, mirroring what `trel_tool index` does for
// the family selector.
int ChainsInfo(const Digraph& graph) {
  auto signals = AnalyzeChains(graph);
  if (!signals.ok()) {
    std::cerr << signals.status() << "\n";
    return 1;
  }
  auto closure = CompressedClosure::Build(graph);
  if (!closure.ok()) {
    std::cerr << closure.status() << "\n";
    return 1;
  }
  const LabelingOptions labeling = DynamicClosure::DefaultOptions().labeling;
  auto chain = BuildChainLabeling(graph, labeling);
  // The true width (minimum chain cover, Dilworth) bounds the greedy
  // count from below; the Hopcroft-Karp matching behind it is quadratic
  // in memory, so probe it on small graphs only.
  int width = -1;
  if (graph.NumNodes() <= 4096) {
    auto minimum = ChainCover::Build(graph, ChainCover::Method::kMinimum);
    if (minimum.ok()) width = minimum->NumChains();
  }
  const bool loads_chain = signals->eligible && chain.ok();

  std::printf("nodes:             %d\n", signals->num_nodes);
  std::printf("arcs:              %lld\n",
              static_cast<long long>(signals->num_arcs));
  std::printf("greedy chains:     %d  (fraction %.4f, eligible below "
              "min(%d, n/%d))\n",
              signals->num_chains, signals->chain_fraction,
              kMaxChainFastChains,
              static_cast<int>(1.0 / kMaxChainWidthFraction));
  if (width >= 0) {
    std::printf("minimum chains:    %d  (antichain width, Dilworth)\n", width);
  } else {
    std::printf("minimum chains:    (skipped; graph over 4096 nodes)\n");
  }
  std::printf("chain eligible:    %s\n", signals->eligible ? "yes" : "no");
  std::printf("alg1 intervals:    %lld\n",
              static_cast<long long>(closure->TotalIntervals()));
  if (chain.ok()) {
    const int64_t chain_intervals = chain->labels.TotalIntervals();
    std::printf("chain intervals:   %lld  (blowup %.2fx, cap %lld/node)\n",
                static_cast<long long>(chain_intervals),
                closure->TotalIntervals() > 0
                    ? static_cast<double>(chain_intervals) /
                          static_cast<double>(closure->TotalIntervals())
                    : 0.0,
                static_cast<long long>(kMaxChainEntriesPerNode));
  } else {
    std::printf("chain intervals:   (build failed: %s)\n",
                chain.status().ToString().c_str());
  }
  std::printf("load would build:  %s\n",
              loads_chain ? "chain_full" : "optimal_full");
  return 0;
}

StatusOr<Digraph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open " + path);
  return ReadEdgeList(in);
}

int Generate(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string kind = argv[0];
  Digraph graph;
  if (kind == "random" && argc == 4) {
    graph = RandomDag(std::atoi(argv[1]), std::atof(argv[2]),
                      std::strtoull(argv[3], nullptr, 10));
  } else if (kind == "tree" && argc == 3) {
    graph = RandomTree(std::atoi(argv[1]),
                       std::strtoull(argv[2], nullptr, 10));
  } else if (kind == "bipartite" && argc == 3) {
    graph = CompleteBipartite(std::atoi(argv[1]), std::atoi(argv[2]));
  } else if (kind == "chained" && argc == 5) {
    graph = ChainedDag(std::atoi(argv[1]), std::atoi(argv[2]),
                       std::atof(argv[3]),
                       std::strtoull(argv[4], nullptr, 10));
  } else if (kind == "clustered" && argc == 7) {
    graph = ClusteredDag(std::atoi(argv[1]), std::atoi(argv[2]),
                         std::atof(argv[3]), std::atoi(argv[4]),
                         std::atof(argv[5]),
                         std::strtoull(argv[6], nullptr, 10));
  } else {
    return Usage();
  }
  WriteEdgeList(graph, std::cout);
  return 0;
}

int Stats(const std::string& path) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  // The closure keeps no tree cover, so the one its labels come from is
  // built here and handed to ComputeClosureStats as well.
  auto cover = ComputeTreeCover(graph.value(), TreeCoverStrategy::kOptimal);
  if (!cover.ok()) {
    std::cerr << cover.status() << "\n";
    return 1;
  }
  auto labels = BuildLabels(graph.value(), cover.value());
  if (!labels.ok()) {
    std::cerr << labels.status() << "\n";
    return 1;
  }
  const CompressedClosure closure =
      CompressedClosure::FromParts(labels.value());
  ReachabilityMatrix matrix(graph.value());
  auto inverse = InverseClosure::Build(graph.value());
  auto chains = ChainCover::Build(graph.value());

  std::printf("nodes:                %d\n", graph->NumNodes());
  std::printf("arcs:                 %lld\n",
              static_cast<long long>(graph->NumArcs()));
  std::printf("closure pairs:        %lld\n",
              static_cast<long long>(matrix.NumClosurePairs()));
  std::printf("compressed intervals: %lld  (storage units %lld)\n",
              static_cast<long long>(closure.TotalIntervals()),
              static_cast<long long>(closure.StorageUnits()));
  if (inverse.ok()) {
    std::printf("inverse pairs:        %lld\n",
                static_cast<long long>(inverse->NumInversePairs()));
  }
  if (chains.ok()) {
    std::printf("chain entries:        %lld  (%d chains, greedy)\n",
                static_cast<long long>(chains->StorageUnits()),
                chains->NumChains());
  }
  std::printf("\n%s",
              ComputeClosureStats(graph.value(), cover.value(), closure)
                  .ToString()
                  .c_str());
  return 0;
}

// Converts a command-line token to the value type of `column` in `base`.
Value ParseValueFor(const Relation& base, const std::string& column,
                    const std::string& token) {
  auto index = base.ColumnIndex(column);
  if (index.ok() &&
      base.schema()[index.value()].type == ColumnType::kInt64) {
    return Value{static_cast<int64_t>(std::strtoll(token.c_str(), nullptr,
                                                   10))};
  }
  return Value{token};
}

// Builds the alpha view over a CSV relation and answers one query.
int Alpha(const std::string& csv_path, const std::string& src_col,
          const std::string& dst_col, const std::string& from,
          const std::string& to) {
  auto base = ReadCsvFile(csv_path);
  if (!base.ok()) {
    std::cerr << base.status() << "\n";
    return 1;
  }
  auto alpha = AlphaOperator::Build(base.value(), src_col, dst_col);
  if (!alpha.ok()) {
    std::cerr << alpha.status() << "\n";
    return 1;
  }
  const bool reaches = alpha->Reaches(ParseValueFor(base.value(), src_col, from),
                                      ParseValueFor(base.value(), dst_col, to));
  std::printf("%s %s %s  (closure pairs %lld, compressed units %lld)\n",
              from.c_str(), reaches ? "reaches" : "does not reach",
              to.c_str(), static_cast<long long>(alpha->NumClosurePairs()),
              static_cast<long long>(alpha->StorageUnits()));
  return reaches ? 0 : 1;
}

int Successors(const std::string& csv_path, const std::string& src_col,
               const std::string& dst_col, const std::string& from) {
  auto base = ReadCsvFile(csv_path);
  if (!base.ok()) {
    std::cerr << base.status() << "\n";
    return 1;
  }
  auto alpha = AlphaOperator::Build(base.value(), src_col, dst_col);
  if (!alpha.ok()) {
    std::cerr << alpha.status() << "\n";
    return 1;
  }
  WriteCsv(alpha->SuccessorsOf(ParseValueFor(base.value(), src_col, from),
                               dst_col),
           std::cout);
  return 0;
}

int Compress(const std::string& graph_path, const std::string& db_path) {
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  auto closure = CompressedClosure::Build(graph.value());
  if (!closure.ok()) {
    std::cerr << closure.status() << "\n";
    return 1;
  }
  auto store = PageStore::Open(db_path);
  if (!store.ok()) {
    std::cerr << store.status() << "\n";
    return 1;
  }
  Status written = IntervalStore::Write(closure.value(), store.value());
  if (!written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::printf("wrote %llu pages (%lld intervals over %d nodes)\n",
              static_cast<unsigned long long>(store->num_pages()),
              static_cast<long long>(closure->TotalIntervals()),
              closure->NumNodes());
  return 0;
}

int Query(const std::string& db_path, NodeId from, NodeId to) {
  auto store = PageStore::Open(db_path, PageStore::kDefaultPageSize,
                               /*truncate=*/false);
  if (!store.ok()) {
    std::cerr << store.status() << "\n";
    return 1;
  }
  BufferPool pool(&store.value(), 16);
  auto on_disk = IntervalStore::Open(&pool);
  if (!on_disk.ok()) {
    std::cerr << on_disk.status() << "\n";
    return 1;
  }
  auto result = on_disk->Reaches(from, to);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::printf("%d %s %d  (%lld logical page reads)\n", from,
              result.value() ? "reaches" : "does not reach", to,
              static_cast<long long>(pool.stats().LogicalReads()));
  return result.value() ? 0 : 1;
}

int LoadService(const std::string& path, QueryService& service) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  Status loaded = service.Load(graph.value());
  if (!loaded.ok()) {
    std::cerr << loaded << "\n";
    return 1;
  }
  return 0;
}

// Deterministic pseudorandom traffic so the obs endpoints show live
// counters: `singles` Reaches calls plus one BatchReaches of `batch_n`.
void WarmupQueries(QueryService& service, int singles, int batch_n) {
  const NodeId n = service.Snapshot()->NumNodes();
  if (n <= 0) return;
  uint64_t lcg = 0x2545F4914F6CDD1DULL;
  auto next = [&lcg, n]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<NodeId>((lcg >> 33) % static_cast<uint64_t>(n));
  };
  for (int i = 0; i < singles; ++i) {
    const NodeId u = next();
    const NodeId v = next();
    (void)service.Reaches(u, v);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(batch_n);
  for (int i = 0; i < batch_n; ++i) {
    const NodeId u = next();
    const NodeId v = next();
    pairs.emplace_back(u, v);
  }
  (void)service.BatchReaches(pairs);
}

// The full warmup sequence behind metricsz / tracez / serve: traffic
// against the initial full-export snapshot (which exercises the batch
// kernel and its outcome counters), then one incremental publish (the
// Load was a full export; this one qualifies for a delta, so the span
// log carries both kinds), then a short second round against the overlay
// snapshot.
void WarmupService(QueryService& service) {
  WarmupQueries(service, 256, 4096);
  if (service.Snapshot()->NumNodes() > 0) {
    auto leaf = service.AddLeafUnder(0);
    if (leaf.ok()) service.Publish();
  }
  WarmupQueries(service, 32, 512);
}

// CI hook (tools/ci.sh --obs): when TREL_FLIGHT_TEST_TRIGGER is set to a
// non-empty, non-"0" value, freeze one capture after warmup so /flightz
// deterministically carries warmed-up traces, spans and windows.
bool FlightTestTriggerRequested() {
  const char* env = std::getenv("TREL_FLIGHT_TEST_TRIGGER");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

int Metricsz(const std::string& path) {
  QueryService service;
  if (int rc = LoadService(path, service); rc != 0) return rc;
  WarmupService(service);
  std::cout << RenderMetricsz(service);
  return 0;
}

int Tracez(const std::string& path, uint32_t sample_period) {
  QueryService service;
  if (int rc = LoadService(path, service); rc != 0) return rc;
  service.tracer().SetSamplePeriod(sample_period == 0 ? 1 : sample_period);
  WarmupService(service);
  std::cout << RenderTracez(service);
  return 0;
}

void WarmupShardedService(ShardedQueryService& service);  // Defined below.

// Offline /flightz dump: build the service (monolithic, or sharded when
// num_shards > 0), sample every query, run the warmup traffic, force one
// capture, and print the flight-recorder JSON.
int Flightz(const std::string& path, int num_shards) {
  if (num_shards > 0) {
    auto graph = LoadGraph(path);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    ShardedServiceOptions options;
    options.num_shards = num_shards;
    options.trace_sample_period = 1;
    ShardedQueryService service(options);
    Status loaded = service.Load(graph.value());
    if (!loaded.ok()) {
      std::cerr << loaded << "\n";
      return 1;
    }
    WarmupShardedService(service);
    service.flight_recorder().ForceCapture("forced_dump");
    std::cout << RenderFlightz(service) << "\n";
    return 0;
  }
  ServiceOptions options;
  options.trace_sample_period = 1;
  QueryService service(options);
  if (int rc = LoadService(path, service); rc != 0) return rc;
  WarmupService(service);
  service.flight_recorder().ForceCapture("forced_dump");
  std::cout << RenderFlightz(service) << "\n";
  return 0;
}

// Serves /metricsz, /statusz, /tracez and /flightz on 127.0.0.1:<port>
// for `duration_seconds`, then exits.  Prints the bound port (meaningful
// with port 0 = ephemeral) on a single line once the listener is up, so
// scripts can scrape it (see tools/ci.sh --obs).
int Serve(const std::string& path, int port, int duration_seconds) {
  QueryService service;
  if (int rc = LoadService(path, service); rc != 0) return rc;
  WarmupService(service);
  if (FlightTestTriggerRequested()) {
    service.flight_recorder().ForceCapture("forced_test_trigger");
  }
  HttpServer server;
  server.Handle("/metricsz", [&service]() { return RenderMetricsz(service); });
  server.Handle("/statusz", [&service]() { return RenderStatusz(service); });
  server.Handle("/tracez", [&service]() { return RenderTracez(service); });
  server.Handle("/flightz", [&service]() { return RenderFlightz(service); });
  Status started = server.Start(port);
  if (!started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::seconds(duration_seconds));
  server.Stop();
  return 0;
}

// Prints the shard layout a ShardedQueryService Load of this graph would
// use: per-shard sizes, the edge cut, the hub cover, and the bytes of the
// boundary index it would publish — the offline twin of the sharded
// service's partitioning step, mirroring `trel_tool index` / `trel_tool
// chains`.
int PartitionInfo(const std::string& path, int num_shards) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  PartitionOptions options;
  options.num_shards = num_shards;
  auto part = PartitionDag(graph.value(), options);
  if (!part.ok()) {
    std::cerr << part.status() << "\n";
    return 1;
  }
  const int64_t n = graph->NumNodes();
  const int64_t hubs = static_cast<int64_t>(part->hubs.size());
  const int64_t words = (hubs + 63) / 64;
  // Two bitset rows (hubs-out, hubs-in) per node are the whole boundary
  // index, so this is Load's boundary_label_bytes exactly.
  const int64_t boundary_bytes = 2 * n * words * 8;

  std::printf("nodes:              %lld\n", static_cast<long long>(n));
  std::printf("arcs:               %lld\n",
              static_cast<long long>(part->total_arcs));
  std::printf("shards:             %d\n", part->num_shards);
  std::printf("shard sizes:       ");
  for (const int64_t size : part->shard_nodes) {
    std::printf(" %lld", static_cast<long long>(size));
  }
  std::printf("\n");
  std::printf("cut arcs:           %lld  (edge-cut fraction %.4f)\n",
              static_cast<long long>(part->cut_arcs),
              part->EdgeCutFraction());
  std::printf("hubs:               %lld  (%.2f%% of nodes)\n",
              static_cast<long long>(hubs),
              n > 0 ? 100.0 * static_cast<double>(hubs) /
                          static_cast<double>(n)
                    : 0.0);
  std::printf("boundary bitsets:   %lld bytes  (%lld words/node x2)\n",
              static_cast<long long>(boundary_bytes),
              static_cast<long long>(words));
  return 0;
}

// Sharded traffic for serve-sharded warmup: singles and one batch
// through the routing front end, so the cross-shard and per-shard
// counters are all live, then a leaf append + publish to tick the
// boundary republish path.
void WarmupShardedService(ShardedQueryService& service) {
  const int64_t n = service.MetricsView().num_nodes;
  if (n <= 0) return;
  uint64_t lcg = 0x2545F4914F6CDD1DULL;
  auto next = [&lcg, n]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<NodeId>((lcg >> 33) % static_cast<uint64_t>(n));
  };
  for (int i = 0; i < 256; ++i) (void)service.Reaches(next(), next());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(4096);
  for (int i = 0; i < 4096; ++i) pairs.emplace_back(next(), next());
  (void)service.BatchReaches(pairs);
  auto leaf = service.AddLeafUnder(0);
  if (leaf.ok()) service.Publish();
  for (int i = 0; i < 32; ++i) (void)service.Reaches(next(), next());
}

// Sharded twin of Serve: /metricsz, /statusz, /tracez (the front-end
// tracer with stage attribution) and /flightz over a
// ShardedQueryService.
int ServeSharded(const std::string& path, int num_shards, int port,
                 int duration_seconds) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  ShardedServiceOptions options;
  options.num_shards = num_shards;
  ShardedQueryService service(options);
  Status loaded = service.Load(graph.value());
  if (!loaded.ok()) {
    std::cerr << loaded << "\n";
    return 1;
  }
  WarmupShardedService(service);
  if (FlightTestTriggerRequested()) {
    service.flight_recorder().ForceCapture("forced_test_trigger");
  }
  HttpServer server;
  server.Handle("/metricsz", [&service]() { return RenderMetricsz(service); });
  server.Handle("/statusz", [&service]() { return RenderStatusz(service); });
  server.Handle("/tracez", [&service]() { return RenderTracez(service); });
  server.Handle("/flightz", [&service]() { return RenderFlightz(service); });
  Status started = server.Start(port);
  if (!started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::seconds(duration_seconds));
  server.Stop();
  return 0;
}

int Dot(const std::string& path) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  auto cover = ComputeTreeCover(graph.value(), TreeCoverStrategy::kOptimal);
  if (!cover.ok()) {
    std::cerr << cover.status() << "\n";
    return 1;
  }
  std::cout << ToDot(graph.value(), cover->parent);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return Generate(argc - 2, argv + 2);
  if (command == "stats" && argc == 3) return Stats(argv[2]);
  if (command == "compress" && argc == 4) return Compress(argv[2], argv[3]);
  if (command == "query" && argc == 5) {
    return Query(argv[2], std::atoi(argv[3]), std::atoi(argv[4]));
  }
  if (command == "dot" && argc == 3) return Dot(argv[2]);
  if (command == "alpha" && argc == 7) {
    return Alpha(argv[2], argv[3], argv[4], argv[5], argv[6]);
  }
  if (command == "successors" && argc == 6) {
    return Successors(argv[2], argv[3], argv[4], argv[5]);
  }
  if (command == "simd" && argc == 2) return SimdInfo();
  if (command == "index" && argc == 3) {
    auto graph = LoadGraph(argv[2]);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    return IndexInfo(graph.value());
  }
  if (command == "chains" && argc == 3) {
    auto graph = LoadGraph(argv[2]);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    return ChainsInfo(graph.value());
  }
  if (command == "metricsz" && argc == 3) return Metricsz(argv[2]);
  if (command == "tracez" && (argc == 3 || argc == 4)) {
    return Tracez(argv[2],
                  argc == 4
                      ? static_cast<uint32_t>(std::strtoul(argv[3], nullptr, 10))
                      : 1u);
  }
  if (command == "flightz" && (argc == 3 || argc == 4)) {
    return Flightz(argv[2], argc == 4 ? std::atoi(argv[3]) : 0);
  }
  if (command == "serve" && (argc == 4 || argc == 5)) {
    return Serve(argv[2], std::atoi(argv[3]),
                 argc == 5 ? std::atoi(argv[4]) : 30);
  }
  if (command == "partition" && (argc == 3 || argc == 4)) {
    return PartitionInfo(argv[2], argc == 4 ? std::atoi(argv[3]) : 4);
  }
  if (command == "serve-sharded" && (argc == 5 || argc == 6)) {
    return ServeSharded(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                        argc == 6 ? std::atoi(argv[5]) : 30);
  }
  return Usage();
}

// The paper's scale claim, end to end: "an airplane, for example, may
// have close to 100,000 different kinds of parts", and such catalogues
// "must be managed as a database".  Builds a synthetic 100k-concept parts
// taxonomy, compresses its closure, and measures what the compression
// buys at that scale.
//
//   ./build/examples/parts_catalog [num_parts]

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/closure_stats.h"
#include "core/compressed_closure.h"
#include "graph/digraph.h"
#include "graph/reachability.h"

int main(int argc, char** argv) {
  using namespace trel;

  const NodeId kParts = argc > 1 ? std::atoi(argv[1]) : 100000;
  Random rng(2024);

  // Parts hierarchy: mostly a deep composition tree, with ~10% of parts
  // shared across assemblies (extra non-tree "used-in" arcs).
  Stopwatch build_graph;
  Digraph graph(kParts);
  for (NodeId v = 1; v < kParts; ++v) {
    // Preferential shallow attachment: most parts attach near the middle
    // layers, like real BOMs.
    const NodeId parent = static_cast<NodeId>(rng.Uniform(v));
    if (!graph.AddArc(parent, v).ok()) return 1;
    if (rng.Bernoulli(0.10) && v > 2) {
      const NodeId other = static_cast<NodeId>(rng.Uniform(v));
      (void)graph.AddArc(other, v);  // Duplicate/self arcs are rejected.
    }
  }
  std::printf("catalogue: %d parts, %lld composition arcs (%.2fs to build)\n",
              kParts, static_cast<long long>(graph.NumArcs()),
              build_graph.ElapsedSeconds());

  // Compress with the DFS cover, the cheapest heuristic cover to compute
  // (bench/tbl_cover_ablation measures what it costs in storage against
  // Alg1's optimal one).
  Stopwatch compress;
  ClosureOptions options;
  options.strategy = TreeCoverStrategy::kDfs;
  auto closure = CompressedClosure::Build(graph, options);
  if (!closure.ok()) {
    std::fprintf(stderr, "%s\n", closure.status().ToString().c_str());
    return 1;
  }
  const double compress_seconds = compress.ElapsedSeconds();

  ClosureStats stats = ComputeClosureStats(graph, closure.value());
  std::printf("compressed closure built in %.2fs\n%s\n", compress_seconds,
              stats.ToString().c_str());

  // Query throughput: "is part X used in assembly Y", the subsumption
  // lookup a KR system issues constantly.
  Stopwatch queries;
  const int kQueries = 1000000;
  int64_t positive = 0;
  for (int q = 0; q < kQueries; ++q) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(kParts));
    const NodeId v = static_cast<NodeId>(rng.Uniform(kParts));
    positive += closure->Reaches(u, v) ? 1 : 0;
  }
  const double query_seconds = queries.ElapsedSeconds();
  std::printf("%d random containment queries in %.2fs (%.0f ns/query, "
              "%lld positive)\n",
              kQueries, query_seconds, 1e9 * query_seconds / kQueries,
              static_cast<long long>(positive));

  // Contrast: the uncompressed closure at this scale.  A full bit matrix
  // would need n^2/8 bytes (1.25 GB at 100k parts), so estimate the pair
  // count from a uniform sample of sources.
  Stopwatch estimate_watch;
  const int kSample = 500;
  int64_t sampled_successors = 0;
  for (int s = 0; s < kSample; ++s) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(kParts));
    sampled_successors +=
        static_cast<int64_t>(DfsReachableSet(graph, u).size()) - 1;
  }
  const double estimated_pairs =
      static_cast<double>(sampled_successors) / kSample * kParts;
  std::printf(
      "full closure: ~%.3g pairs estimated from %d sampled sources "
      "(vs %lld compressed units; estimate took %.2fs)\n",
      estimated_pairs, kSample,
      static_cast<long long>(closure->StorageUnits()),
      estimate_watch.ElapsedSeconds());
  return 0;
}

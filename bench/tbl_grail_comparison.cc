// Forward-looking comparison: the 1989 exact interval compression vs a
// GRAIL-style randomized labeling (VLDB 2010), the technique's best-known
// descendant, as implemented by TreeCoverIndex.  GRAIL stores exactly k
// intervals per node but answers "maybe" and falls back to pruned DFS;
// the 1989 scheme stores a variable number of exact intervals and never
// traverses.  The fallback share and the DFS nodes per query come from
// TreeCoverIndex::ReachesTraced (kFallback tag, extras_probes).

#include <cstdio>

#include "baselines/tree_cover_index.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/compressed_closure.h"
#include "graph/generators.h"

int main() {
  using namespace trel;
  using bench_util::Fmt;

  const NodeId kNodes = static_cast<NodeId>(bench_util::ScaleN(2000));
  const int kQueries = static_cast<int>(bench_util::ScaleN(20000, 1000));

  std::printf(
      "Exact interval compression (1989) vs GRAIL-style labeling "
      "(n=%d, %d random queries)\n\n",
      kNodes, kQueries);
  bench_util::Table table({"degree", "k", "trel_ivls", "grail_ivls",
                           "fallback%", "dfs_visits/q", "trel_us/q",
                           "grail_us/q"});

  for (double degree : {2.0, 4.0}) {
    Digraph graph = RandomDag(kNodes, degree, 9700);
    auto exact = CompressedClosure::Build(graph);
    if (!exact.ok()) return 1;

    for (int k : {1, 2, 4}) {
      const TreeCoverIndex grail = TreeCoverIndex::Build(graph, k, 42);

      Random rng(7);
      std::vector<std::pair<NodeId, NodeId>> queries;
      queries.reserve(kQueries);
      for (int q = 0; q < kQueries; ++q) {
        queries.emplace_back(static_cast<NodeId>(rng.Uniform(kNodes)),
                             static_cast<NodeId>(rng.Uniform(kNodes)));
      }

      Stopwatch exact_watch;
      int64_t exact_true = 0;
      for (const auto& [u, v] : queries) {
        exact_true += exact->Reaches(u, v) ? 1 : 0;
      }
      const double exact_us =
          static_cast<double>(exact_watch.ElapsedMicros()) / kQueries;

      Stopwatch grail_watch;
      int64_t grail_true = 0;
      for (const auto& [u, v] : queries) {
        grail_true += grail.Reaches(u, v) ? 1 : 0;
      }
      const double grail_us =
          static_cast<double>(grail_watch.ElapsedMicros()) / kQueries;
      if (grail_true != exact_true) {
        std::printf("MISMATCH: exact %lld vs grail %lld\n",
                    static_cast<long long>(exact_true),
                    static_cast<long long>(grail_true));
        return 1;
      }

      // Untimed second pass for the per-query decision tallies.
      int64_t fallbacks = 0;
      int64_t dfs_visits = 0;
      for (const auto& [u, v] : queries) {
        ProbeTrace trace;
        (void)grail.ReachesTraced(u, v, &trace);
        if (trace.tag == ProbeTag::kFallback) {
          ++fallbacks;
          dfs_visits += trace.extras_probes;
        }
      }

      table.AddRow(
          {Fmt(degree, 1), Fmt(static_cast<int64_t>(k)),
           Fmt(exact->TotalIntervals()),
           Fmt(static_cast<int64_t>(k) * kNodes),
           Fmt(100.0 * fallbacks / kQueries),
           Fmt(static_cast<double>(dfs_visits) / kQueries),
           Fmt(exact_us, 3), Fmt(grail_us, 3)});
    }
  }
  table.Print();
  return 0;
}

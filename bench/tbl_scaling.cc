// Scaling beyond the paper's 1000-node experiments: build time and
// storage as the graph grows to 10^5 nodes ("the space of concepts in a
// knowledge base can easily become quite large"), for the optimal cover
// and the DFS-cover heuristic at every size.  Alg1 counts predecessors
// one 512-rank block at a time, so its memory stays linear in the graph
// and its time grows as (n + m) * n / 512 word operations.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/compressed_closure.h"
#include "graph/generators.h"

int main() {
  using namespace trel;
  using bench_util::Fmt;

  std::printf("Scaling (degree 2 random DAGs)\n\n");
  bench_util::Table table({"nodes", "strategy", "build_ms", "intervals",
                           "ivls/node"});
  const std::vector<NodeId> sizes =
      bench_util::SmokeMode()
          ? std::vector<NodeId>{100, 200}
          : std::vector<NodeId>{1000, 5000, 10000, 50000, 100000};
  for (NodeId n : sizes) {
    Digraph graph = RandomDag(n, 2.0, 11000);
    for (TreeCoverStrategy strategy :
         {TreeCoverStrategy::kOptimal, TreeCoverStrategy::kDfs}) {
      ClosureOptions options;
      options.strategy = strategy;
      Stopwatch watch;
      auto closure = CompressedClosure::Build(graph, options);
      if (!closure.ok()) return 1;
      table.AddRow({Fmt(static_cast<int64_t>(n)),
                    TreeCoverStrategyName(strategy),
                    Fmt(watch.ElapsedSeconds() * 1000.0, 1),
                    Fmt(closure->TotalIntervals()),
                    Fmt(static_cast<double>(closure->TotalIntervals()) / n)});
    }
  }
  table.Print();
  return 0;
}

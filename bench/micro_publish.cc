// Tiered full-build shootout (DESIGN.md §4f): on the chain-structured
// 50k-node DAG the fast tier exists for, measure the Alg1-optimal label
// build against the chain-fast build (DynamicClosure::Build vs
// BuildWithChains) — the choice QueryService::Load makes on eligible
// graphs — plus the interval-count blowup the fast tier trades for its
// speed.  Alg1 counts predecessors in 512-rank blocks and propagates by
// linear merges, so both tiers build in linear memory and the ratio
// measures propagation work, not a quadratic bitset pass.  The
// hot-metrics manifest gates the Alg1 build time itself (lower is
// better), the alg1_over_chain speedup ratio (direction "higher"; the
// acceptance bar is >= 2x at full size) and the blowup ratio (lower is
// better, capped well under the kMaxChainEntriesPerNode backstop).

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/chain_propagator.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"

namespace {

using namespace trel;
using bench_util::Fmt;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct BuildRun {
  double best_ms = 0.0;
  int64_t intervals = 0;
};

// Best-of-reps wall time for one full label build.  `chain` picks the
// tier; both paths produce a queryable DynamicClosure so the work is
// symmetric (cover + labels, no export).
BuildRun MeasureBuild(const Digraph& graph, int reps, bool chain) {
  BuildRun run;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<DynamicClosure> built = chain
                                         ? DynamicClosure::BuildWithChains(graph)
                                         : DynamicClosure::Build(graph);
    const double ms = MsSince(start);
    TREL_CHECK(built.ok()) << built.status().message();
    if (r == 0 || ms < run.best_ms) run.best_ms = ms;
    run.intervals = built->labels().TotalIntervals();
  }
  return run;
}

}  // namespace

int main() {
  const bool smoke = bench_util::SmokeMode();
  // Full size: the 50-chain, 1000-node-per-chain, degree-4 DAG from
  // EXPERIMENTS.md (50k nodes, 200k arcs).  Smoke keeps the shape (and
  // chain eligibility) at 1/25 the node count.
  const int num_chains = smoke ? 16 : 50;
  const NodeId chain_length = smoke ? 125 : 1000;
  const double avg_degree = 4.0;
  const int reps = static_cast<int>(bench_util::ScaleReps(5));
  const Digraph graph =
      ChainedDag(num_chains, chain_length, avg_degree, /*seed=*/13);

  auto signals = AnalyzeChains(graph);
  TREL_CHECK(signals.ok());
  TREL_CHECK(signals->eligible);

  const BuildRun optimal = MeasureBuild(graph, reps, /*chain=*/false);
  const BuildRun chain = MeasureBuild(graph, reps, /*chain=*/true);

  const double build_speedup = optimal.best_ms / chain.best_ms;
  const double blowup = static_cast<double>(chain.intervals) /
                        static_cast<double>(optimal.intervals);

  std::printf("Full-publish tiers on ChainedDag(%d, %d, %.1f): %d nodes, "
              "%lld arcs, %d chains\n\n",
              num_chains, static_cast<int>(chain_length), avg_degree,
              static_cast<int>(graph.NumNodes()),
              static_cast<long long>(graph.NumArcs()),
              signals->num_chains);
  bench_util::Table table({"tier", "build_ms", "intervals"});
  table.AddRow({"optimal", Fmt(optimal.best_ms), Fmt(optimal.intervals)});
  table.AddRow({"chain", Fmt(chain.best_ms), Fmt(chain.intervals)});
  table.Print();
  std::printf("\nbuild speedup (alg1/chain):  %.2fx\n", build_speedup);
  std::printf("interval blowup (chain/opt): %.2fx\n", blowup);

  bench_util::BenchReport report("micro_publish");
  report.config()
      .Set("smoke", smoke)
      .Set("num_chains", num_chains)
      .Set("chain_length", static_cast<int64_t>(chain_length))
      .Set("avg_degree", avg_degree)
      .Set("nodes", static_cast<int64_t>(graph.NumNodes()))
      .Set("arcs", graph.NumArcs())
      .Set("reps", reps);
  report.AddRow()
      .Set("name", "full_build/optimal")
      .Set("build_ms", optimal.best_ms)
      .Set("intervals", optimal.intervals);
  report.AddRow()
      .Set("name", "full_build/chain")
      .Set("build_ms", chain.best_ms)
      .Set("intervals", chain.intervals);
  // The gated rows: chain-tier speedup must not regress, blowup must not
  // creep toward the entry cap.
  report.AddRow()
      .Set("name", "full_build/alg1_over_chain")
      .Set("build_speedup", build_speedup)
      .Set("interval_blowup", blowup);
  if (!report.WriteIfEnabled()) return 1;
  return 0;
}

// Section 4 measurement: cost of incremental updates against the
// alternative the paper worries about — recomputing the compressed
// closure from scratch after every change.
//
// Paper's claim: "the incremental cost of adding new nodes and
// relationships should be less than recomputing the transitive closure";
// leaf additions are constant-time, non-tree arcs propagate only to
// affected predecessors, and hierarchy refinement with reserved gaps
// needs no propagation at all.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/compressed_closure.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"

namespace {

// Microseconds per operation over `ops` operations of `fn`.
template <typename Fn>
double MicrosPerOp(int ops, Fn&& fn) {
  trel::Stopwatch watch;
  for (int i = 0; i < ops; ++i) fn(i);
  return static_cast<double>(watch.ElapsedMicros()) / ops;
}

}  // namespace

int main() {
  using namespace trel;
  using bench_util::Fmt;

  std::printf("Incremental update cost vs rebuild (microseconds/op)\n\n");
  bench_util::Table table({"nodes", "first_leaf", "add_leaf", "add_arc",
                           "remove_arc", "refine", "rebuild"});

  // 50,000 nodes is where the postorder directory outgrows the caches,
  // the size of the end-to-end benchmark's graphs.
  const std::vector<NodeId> sizes =
      bench_util::SmokeMode()
          ? std::vector<NodeId>{100, 200}
          : std::vector<NodeId>{200, 500, 1000, 2000, 50000};
  for (NodeId n : sizes) {
    Digraph graph = RandomDag(n, 2.0, 6000 + n);

    auto built = DynamicClosure::Build(graph);
    if (!built.ok()) return 1;
    DynamicClosure closure = std::move(built).value();
    Random rng(1);

    const auto add_random_leaf = [&](int) {
      const NodeId parent = static_cast<NodeId>(
          rng.Uniform(static_cast<uint64_t>(closure.NumNodes())));
      (void)closure.AddLeafUnder(parent);
    };
    // The first leaf after a build grows every per-node array past its
    // exact size, O(n) once; it is timed apart from the leaves after it.
    const double first_leaf = MicrosPerOp(1, add_random_leaf);
    const double add_leaf = MicrosPerOp(200, add_random_leaf);

    const double add_arc = MicrosPerOp(100, [&](int) {
      for (;;) {
        const NodeId a = static_cast<NodeId>(
            rng.Uniform(static_cast<uint64_t>(closure.NumNodes())));
        const NodeId b = static_cast<NodeId>(
            rng.Uniform(static_cast<uint64_t>(closure.NumNodes())));
        if (closure.AddArc(a, b).ok()) break;
      }
    });

    const double remove_arc = MicrosPerOp(50, [&](int) {
      auto arcs = closure.graph().Arcs();
      const auto& [a, b] = arcs[rng.Uniform(arcs.size())];
      (void)closure.RemoveArc(a, b);
    });

    // Refinement on a freshly built index (full reserve pools).
    auto fresh = DynamicClosure::Build(graph);
    if (!fresh.ok()) return 1;
    DynamicClosure refiner = std::move(fresh).value();
    const auto refine_one = [&](int i) {
      // RandomDag's arcs run from lower to higher ids, so low ids are
      // mostly sources, which have no parent to refine under; count down.
      const NodeId child = static_cast<NodeId>(n - 1 - (i * 13 + 7) % n);
      (void)refiner.RefineAbove(child,
                                refiner.graph().InNeighbors(child));
    };
    // The first refinement grows every per-node array, as first_leaf
    // does, so it runs untimed (on a child the timed calls do not use).
    refine_one(100);
    const double refine = MicrosPerOp(100, refine_one);

    const double rebuild = MicrosPerOp(5, [&](int) {
      auto rebuilt = CompressedClosure::Build(graph);
      if (!rebuilt.ok()) std::exit(1);
    });

    table.AddRow({Fmt(static_cast<int64_t>(n)), Fmt(first_leaf),
                  Fmt(add_leaf), Fmt(add_arc), Fmt(remove_arc), Fmt(refine),
                  Fmt(rebuild)});
  }
  table.Print();
  std::printf(
      "\nNote: remove_arc re-propagates interval sets (correctness-first "
      "implementation of the paper's deletion algorithms) but skips the "
      "tree-cover recomputation that dominates rebuild.\n");
  return 0;
}

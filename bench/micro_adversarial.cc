// Adversarial shapes: the Fig 3.6 complete-bipartite crossing and a
// hub-and-spoke DAG, where the paper's interval labeling pays
// Theta(n^2).  Measures the interval arena every snapshot answers from
// against the GRAIL-style TreeCoverIndex comparator, for label bytes,
// build time and point-probe latency.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/tree_cover_index.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "core/compressed_closure.h"
#include "graph/generators.h"

namespace {

using namespace trel;
using bench_util::Fmt;

struct StructureRun {
  int64_t label_bytes = 0;
  double build_ms = 0.0;
  double us_per_probe = 0.0;
  int64_t hits = 0;  // Keeps the probe loop from being optimized away.
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using Probe = std::function<bool(NodeId, NodeId)>;

// One structure a point read can go to, by row name.  `build` builds it
// over the graph, points `probe` at it (the probe owns the structure, so
// each pays its own memory-access pattern, nothing else) and returns its
// label bytes.
struct Structure {
  const char* name;
  int64_t (*build)(const Digraph& graph, Probe* probe);
};

constexpr Structure kStructures[] = {
    {"intervals",
     [](const Digraph& graph, Probe* probe) {
       StatusOr<CompressedClosure> built = CompressedClosure::Build(graph);
       TREL_CHECK(built.ok());
       auto closure =
           std::make_shared<const CompressedClosure>(*std::move(built));
       *probe = [closure](NodeId u, NodeId v) {
         return closure->Reaches(u, v);
       };
       return closure->ArenaByteSize();
     }},
    {"trees",
     [](const Digraph& graph, Probe* probe) {
       auto trees =
           std::make_shared<const TreeCoverIndex>(TreeCoverIndex::Build(graph));
       *probe = [trees](NodeId u, NodeId v) { return trees->Reaches(u, v); };
       return trees->LabelBytes();
     }},
};

// Builds one structure and drives `probes` random point queries through
// it.
StructureRun Measure(const Digraph& graph, int64_t probes,
                     const Structure& structure) {
  StructureRun run;
  const auto build_start = std::chrono::steady_clock::now();
  Probe probe;
  run.label_bytes = structure.build(graph, &probe);
  run.build_ms = MsSince(build_start);

  Random rng(7);
  const NodeId n = graph.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs(
      static_cast<size_t>(probes));
  for (auto& [u, v] : pairs) {
    u = static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
    v = static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(n)));
  }
  const auto probe_start = std::chrono::steady_clock::now();
  for (const auto& [u, v] : pairs) run.hits += probe(u, v) ? 1 : 0;
  run.us_per_probe =
      MsSince(probe_start) * 1000.0 / static_cast<double>(probes);
  return run;
}

}  // namespace

int main() {
  const bool smoke = bench_util::SmokeMode();
  const int64_t probes = smoke ? 2000 : 200000;

  // The two adversarial shapes, smoke-shrunk to stay under the CI cap.
  const NodeId bip = static_cast<NodeId>(bench_util::ScaleN(250, 60));
  const NodeId hub_sources = static_cast<NodeId>(bench_util::ScaleN(900, 90));
  const NodeId hub_sinks = static_cast<NodeId>(bench_util::ScaleN(700, 70));
  std::vector<std::pair<std::string, Digraph>> graphs;
  graphs.emplace_back("fig3_6_bipartite", CompleteBipartite(bip, bip));
  graphs.emplace_back("hub_spine", HubDag(hub_sources, 8, hub_sinks, 10));

  std::printf("Adversarial shapes: the interval arena vs the GRAIL "
              "comparator\n\n");
  bench_util::Table table({"graph", "structure", "label_bytes", "build_ms",
                           "us_per_probe"});
  bench_util::BenchReport report("micro_adversarial");
  report.config()
      .Set("smoke", smoke)
      .Set("probes", probes)
      .Set("bipartite_width", static_cast<int64_t>(bip))
      .Set("hub_sources", static_cast<int64_t>(hub_sources))
      .Set("hub_sinks", static_cast<int64_t>(hub_sinks));

  for (const auto& [graph_name, graph] : graphs) {
    for (const Structure& structure : kStructures) {
      const StructureRun run = Measure(graph, probes, structure);
      table.AddRow({graph_name, structure.name, Fmt(run.label_bytes),
                    Fmt(run.build_ms), Fmt(run.us_per_probe, 4)});
      report.AddRow()
          .Set("name", graph_name + "/" + structure.name)
          .Set("label_bytes", run.label_bytes)
          .Set("build_ms", run.build_ms)
          .Set("us_per_probe", run.us_per_probe)
          .Set("hits", run.hits);
    }
  }
  table.Print();
  if (!report.WriteIfEnabled()) return 1;
  return 0;
}

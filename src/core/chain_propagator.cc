#include "core/chain_propagator.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/topology.h"

namespace trel {
namespace {

// Chains propagate in blocks of this many frontiers per graph pass; one
// cache-resident row of 64 Labels per node keeps the inner max-merge
// loop vectorizable.
constexpr int kChainBlock = 64;

ChainSignals SignalsFor(const Digraph& graph, const ChainAssignment& chains) {
  ChainSignals signals;
  signals.num_nodes = graph.NumNodes();
  signals.num_arcs = graph.NumArcs();
  signals.num_chains = chains.num_chains;
  signals.chain_fraction =
      signals.num_nodes > 0
          ? static_cast<double>(chains.num_chains) / signals.num_nodes
          : 0.0;
  // The max(1, ...) keeps trivially chain-shaped small graphs (one or two
  // paths) eligible even below 16 nodes.
  signals.eligible =
      chains.num_chains <= kMaxChainFastChains &&
      static_cast<double>(chains.num_chains) <=
          std::max(1.0, signals.num_nodes * kMaxChainWidthFraction);
  return signals;
}

}  // namespace

StatusOr<ChainSignals> AnalyzeChains(const Digraph& graph) {
  TREL_ASSIGN_OR_RETURN(std::vector<NodeId> topo, TopologicalOrder(graph));
  return SignalsFor(graph, GreedyPathCover(graph, topo));
}

StatusOr<ChainBuild> BuildChainLabeling(const Digraph& graph,
                                        const LabelingOptions& options) {
  if (options.gap < 1) {
    return InvalidArgumentError("gap must be >= 1");
  }
  if (options.reserve < 0 || options.reserve >= options.gap) {
    return InvalidArgumentError("reserve must be in [0, gap)");
  }
  if (options.merge_adjacent) {
    return InvalidArgumentError(
        "chain-fast labeling does not support merge_adjacent");
  }
  if (!CompactNumberingFits(graph.NumNodes(), options.gap, options.reserve)) {
    return InvalidArgumentError(
        "numbering " + std::to_string(graph.NumNodes()) + " nodes at gap " +
        std::to_string(options.gap) + " passes the 32-bit label limit");
  }
  TREL_ASSIGN_OR_RETURN(std::vector<NodeId> topo, TopologicalOrder(graph));
  const NodeId n = graph.NumNodes();
  const Label gap = options.gap;
  const Label reserve = options.reserve;

  ChainBuild build;
  ChainAssignment chains = GreedyPathCover(graph, topo);
  build.signals = SignalsFor(graph, chains);
  const int num_chains = chains.num_chains;

  // Chain geometry: lengths, postorder block bases, member slots.  Chain
  // c's members own the numbers (base[c], base[c] + len[c] * gap] with
  // the tail lowest — exactly what AssignPostorder hands a path rooted at
  // the head, since postorder numbers the deepest node first.
  std::vector<int64_t> chain_len(num_chains, 0);
  for (NodeId v = 0; v < n; ++v) ++chain_len[chains.chain_of[v]];
  std::vector<Label> base(num_chains + 1, 0);
  std::vector<int64_t> offset(num_chains + 1, 0);
  for (int c = 0; c < num_chains; ++c) {
    base[c + 1] = base[c] + chain_len[c] * gap;
    offset[c + 1] = offset[c] + chain_len[c];
  }
  std::vector<NodeId> member(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    member[offset[chains.chain_of[v]] + chains.seq_of[v]] = v;
  }

  NodeLabels& labels = build.labels;
  labels.gap = gap;
  labels.reserve = reserve;
  labels.postorder.assign(n, 0);
  labels.tree_interval.assign(n, Interval{0, 0});
  for (NodeId v = 0; v < n; ++v) {
    const int c = chains.chain_of[v];
    const Label num = base[c] + (chain_len[c] - chains.seq_of[v]) * gap;
    labels.postorder[v] = num;
    // All members of a path share the head's anchor: nothing is numbered
    // between entering the head and reaching the tail.
    labels.tree_interval[v] = Interval{base[c] + reserve + 1, num};
  }

  // The path cover as a TreeCover; chains are already ordered by
  // ascending head id (GreedyPathCover), so roots come out ascending.
  TreeCover& cover = build.cover;
  cover.parent.assign(n, kNoNode);
  cover.children.assign(n, {});
  cover.roots.reserve(num_chains);
  for (int c = 0; c < num_chains; ++c) {
    cover.roots.push_back(member[offset[c]]);
    for (int64_t i = 1; i < chain_len[c]; ++i) {
      const NodeId v = member[offset[c] + i];
      const NodeId p = member[offset[c] + i - 1];
      cover.parent[v] = p;
      cover.children[p].push_back(v);
    }
  }

  // Ascending postorder is tail-to-head within a chain, chains in order.
  build.sorted_directory.reserve(n);
  for (int c = 0; c < num_chains; ++c) {
    for (int64_t i = chain_len[c] - 1; i >= 0; --i) {
      const NodeId v = member[offset[c] + i];
      build.sorted_directory.emplace_back(labels.postorder[v], v);
    }
  }

  // Blocked frontier propagation.  frontier[v * width + j] is the highest
  // value chain (c0 + j) contributes to v's label: its own padded
  // postorder if v is the member, else the max over out-neighbors — the
  // closed form of what PropagateIntervals' subsumption leaves standing.
  // Emitting per node in block-ascending chain order yields each interval
  // list already sorted by lo (blocks never overlap), so the sets load
  // through FromSortedAntichain without per-interval Insert work.
  std::vector<std::vector<Interval>> emitted(n);
  const int64_t entry_cap = kMaxChainEntriesPerNode * std::max<int64_t>(1, n);
  int64_t entries = 0;
  std::vector<Label> frontier;
  for (int c0 = 0; c0 < num_chains; c0 += kChainBlock) {
    const int width = std::min(kChainBlock, num_chains - c0);
    frontier.assign(static_cast<size_t>(n) * width, 0);
    for (NodeId idx = n; idx-- > 0;) {
      const NodeId v = topo[idx];
      Label* row = frontier.data() + static_cast<size_t>(v) * width;
      for (const NodeId q : graph.OutNeighbors(v)) {
        const Label* succ = frontier.data() + static_cast<size_t>(q) * width;
        for (int j = 0; j < width; ++j) row[j] = std::max(row[j], succ[j]);
      }
      const int own = chains.chain_of[v] - c0;
      std::vector<Interval>& out = emitted[v];
      for (int j = 0; j < width; ++j) {
        if (j == own) {
          // Own chain keeps only the (unpadded) tree interval: anything
          // propagated up the chain sits at least one gap below v's own
          // number and is subsumed.
          out.push_back(labels.tree_interval[v]);
        } else if (row[j] > 0) {
          out.push_back(Interval{base[c0 + j] + reserve + 1, row[j]});
        } else {
          continue;
        }
        ++entries;
      }
      if (own >= 0 && own < width) {
        // What predecessors receive: the tree interval padded with the
        // refinement reserve, matching PropagateIntervals.
        row[own] = labels.postorder[v] + reserve;
      }
      if (entries > entry_cap) {
        return ResourceExhaustedError(
            "chain-fast labeling exceeded the per-node entry cap");
      }
    }
  }

  labels.intervals.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    labels.intervals[v] = IntervalSet::FromSortedAntichain(std::move(emitted[v]));
  }
  return build;
}

}  // namespace trel

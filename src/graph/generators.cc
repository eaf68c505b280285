#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace trel {
namespace {

// Packs an ordered pair into one key for the dedupe set.
uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

}  // namespace

Digraph RandomDag(NodeId num_nodes, double avg_out_degree, uint64_t seed) {
  TREL_CHECK_GT(num_nodes, 0);
  TREL_CHECK_GE(avg_out_degree, 0.0);
  Digraph graph(num_nodes);
  const int64_t max_arcs =
      static_cast<int64_t>(num_nodes) * (num_nodes - 1) / 2;
  int64_t target = std::llround(avg_out_degree * num_nodes);
  target = std::min(target, max_arcs);

  Random rng(seed);
  std::unordered_set<uint64_t> used;
  used.reserve(static_cast<size_t>(target) * 2);

  // Rejection sampling is efficient while the graph is sparse; for dense
  // requests (> half the possible arcs) enumerate-and-shuffle instead.
  if (target <= max_arcs / 2 || max_arcs < 64) {
    int64_t added = 0;
    while (added < target) {
      NodeId a = static_cast<NodeId>(rng.Uniform(num_nodes));
      NodeId b = static_cast<NodeId>(rng.Uniform(num_nodes));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (!used.insert(PairKey(a, b)).second) continue;
      TREL_CHECK(graph.AddArc(a, b).ok());
      ++added;
    }
  } else {
    std::vector<std::pair<NodeId, NodeId>> all;
    all.reserve(static_cast<size_t>(max_arcs));
    for (NodeId i = 0; i < num_nodes; ++i) {
      for (NodeId j = i + 1; j < num_nodes; ++j) all.emplace_back(i, j);
    }
    // Fisher-Yates prefix shuffle of length `target`.
    for (int64_t i = 0; i < target; ++i) {
      const int64_t j =
          i + static_cast<int64_t>(rng.Uniform(all.size() - i));
      std::swap(all[i], all[j]);
      TREL_CHECK(graph.AddArc(all[i].first, all[i].second).ok());
    }
  }
  return graph;
}

Digraph RandomTree(NodeId num_nodes, uint64_t seed) {
  TREL_CHECK_GT(num_nodes, 0);
  Digraph graph(num_nodes);
  Random rng(seed);
  for (NodeId v = 1; v < num_nodes; ++v) {
    const NodeId parent = static_cast<NodeId>(rng.Uniform(v));
    TREL_CHECK(graph.AddArc(parent, v).ok());
  }
  return graph;
}

Digraph CompleteTree(int branching, int depth) {
  TREL_CHECK_GE(branching, 1);
  TREL_CHECK_GE(depth, 0);
  // Number of nodes = (b^(depth+1) - 1) / (b - 1); build breadth-first.
  Digraph graph;
  const NodeId root = graph.AddNode();
  std::vector<NodeId> frontier = {root};
  for (int level = 0; level < depth; ++level) {
    std::vector<NodeId> next;
    next.reserve(frontier.size() * static_cast<size_t>(branching));
    for (NodeId parent : frontier) {
      for (int c = 0; c < branching; ++c) {
        const NodeId child = graph.AddNode();
        TREL_CHECK(graph.AddArc(parent, child).ok());
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return graph;
}

Digraph LayeredDag(int layers, int width, double arc_prob, uint64_t seed) {
  TREL_CHECK_GE(layers, 1);
  TREL_CHECK_GE(width, 1);
  Digraph graph(static_cast<NodeId>(layers) * width);
  Random rng(seed);
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (rng.Bernoulli(arc_prob)) {
          const NodeId u = static_cast<NodeId>(layer * width + a);
          const NodeId v = static_cast<NodeId>((layer + 1) * width + b);
          TREL_CHECK(graph.AddArc(u, v).ok());
        }
      }
    }
  }
  return graph;
}

Digraph CompleteBipartite(NodeId num_top, NodeId num_bottom) {
  TREL_CHECK_GT(num_top, 0);
  TREL_CHECK_GT(num_bottom, 0);
  Digraph graph(num_top + num_bottom);
  for (NodeId u = 0; u < num_top; ++u) {
    for (NodeId v = 0; v < num_bottom; ++v) {
      TREL_CHECK(graph.AddArc(u, num_top + v).ok());
    }
  }
  return graph;
}

Digraph BipartiteWithIntermediary(NodeId num_top, NodeId num_bottom) {
  TREL_CHECK_GT(num_top, 0);
  TREL_CHECK_GT(num_bottom, 0);
  Digraph graph(num_top + 1 + num_bottom);
  const NodeId middle = num_top;
  for (NodeId u = 0; u < num_top; ++u) {
    TREL_CHECK(graph.AddArc(u, middle).ok());
  }
  for (NodeId v = 0; v < num_bottom; ++v) {
    TREL_CHECK(graph.AddArc(middle, middle + 1 + v).ok());
  }
  return graph;
}

Digraph ChainedDag(int num_chains, NodeId chain_length, double avg_degree,
                   uint64_t seed) {
  TREL_CHECK_GT(num_chains, 0);
  TREL_CHECK_GT(chain_length, 0);
  const NodeId n = static_cast<NodeId>(num_chains) * chain_length;
  Digraph graph(n);
  for (int w = 0; w < num_chains; ++w) {
    for (NodeId i = 0; i + 1 < chain_length; ++i) {
      const NodeId v = static_cast<NodeId>(w) * chain_length + i;
      TREL_CHECK(graph.AddArc(v, v + 1).ok());
    }
  }
  const int64_t chain_arcs =
      static_cast<int64_t>(num_chains) * (chain_length - 1);
  int64_t target = std::llround(avg_degree * n) - chain_arcs;
  TREL_CHECK_GE(target, 0) << "avg_degree below the chain arcs' share";
  if (num_chains == 1 || chain_length == 1) target = 0;  // No cross arcs fit.
  Random rng(seed);
  std::unordered_set<uint64_t> used;
  used.reserve(static_cast<size_t>(target) * 2);
  int64_t added = 0;
  while (added < target) {
    const int wa = static_cast<int>(rng.Uniform(num_chains));
    const int wb = static_cast<int>(rng.Uniform(num_chains));
    if (wa == wb) continue;
    const NodeId ia = static_cast<NodeId>(rng.Uniform(chain_length));
    const NodeId ib = static_cast<NodeId>(rng.Uniform(chain_length));
    // Strictly increasing in-chain position keeps the graph acyclic (and
    // node id order topological) regardless of chain order.
    if (ia >= ib) continue;
    const NodeId a = static_cast<NodeId>(wa) * chain_length + ia;
    const NodeId b = static_cast<NodeId>(wb) * chain_length + ib;
    if (!used.insert(PairKey(a, b)).second) continue;
    TREL_CHECK(graph.AddArc(a, b).ok());
    ++added;
  }
  return graph;
}

Digraph ClusteredDag(int num_clusters, NodeId cluster_size,
                     double avg_out_degree, int gateways,
                     double cross_fraction, uint64_t seed) {
  TREL_CHECK_GT(num_clusters, 0);
  TREL_CHECK_GT(cluster_size, 0);
  TREL_CHECK_GT(gateways, 0);
  TREL_CHECK_LE(gateways, cluster_size);
  TREL_CHECK_GE(cross_fraction, 0.0);
  TREL_CHECK_LE(cross_fraction, 1.0);
  const NodeId n = static_cast<NodeId>(num_clusters) * cluster_size;
  Digraph graph(n);
  const int64_t target = std::llround(avg_out_degree * n);
  int64_t cross_target =
      num_clusters > 1 ? std::llround(cross_fraction * target) : 0;
  // Intra-cluster arcs need i < j pairs; a 1-node cluster has none.
  int64_t intra_target = cluster_size > 1 ? target - cross_target : 0;
  const int64_t intra_max = static_cast<int64_t>(num_clusters) *
                            cluster_size * (cluster_size - 1) / 2;
  intra_target = std::min(intra_target, intra_max);
  Random rng(seed);
  std::unordered_set<uint64_t> used;
  used.reserve(static_cast<size_t>(target) * 2);
  int64_t added = 0;
  while (added < intra_target) {
    const NodeId base =
        static_cast<NodeId>(rng.Uniform(num_clusters)) * cluster_size;
    const NodeId i = static_cast<NodeId>(rng.Uniform(cluster_size));
    const NodeId j = static_cast<NodeId>(rng.Uniform(cluster_size));
    if (i >= j) continue;
    if (!used.insert(PairKey(base + i, base + j)).second) continue;
    TREL_CHECK(graph.AddArc(base + i, base + j).ok());
    ++added;
  }
  added = 0;
  int64_t attempts = 0;
  while (added < cross_target && attempts < cross_target * 64 + 1024) {
    ++attempts;
    const int ca = static_cast<int>(rng.Uniform(num_clusters));
    const int cb = static_cast<int>(rng.Uniform(num_clusters));
    if (ca >= cb) continue;  // Forward in id order keeps it acyclic.
    // Leave through a gateway: one of the source cluster's last nodes.
    const NodeId u = static_cast<NodeId>(ca) * cluster_size + cluster_size -
                     1 - static_cast<NodeId>(rng.Uniform(gateways));
    const NodeId v = static_cast<NodeId>(cb) * cluster_size +
                     static_cast<NodeId>(rng.Uniform(cluster_size));
    if (!used.insert(PairKey(u, v)).second) continue;
    TREL_CHECK(graph.AddArc(u, v).ok());
    ++added;
  }
  return graph;
}

int64_t EnumerateDagsOverOrder(
    NodeId num_nodes, const std::function<void(const Digraph&)>& fn) {
  TREL_CHECK_GT(num_nodes, 0);
  const int num_slots = num_nodes * (num_nodes - 1) / 2;
  TREL_CHECK_LE(num_slots, 40) << "enumeration space too large";

  // Precompute the (i, j) pair for each bit position.
  std::vector<std::pair<NodeId, NodeId>> slots;
  slots.reserve(static_cast<size_t>(num_slots));
  for (NodeId i = 0; i < num_nodes; ++i) {
    for (NodeId j = i + 1; j < num_nodes; ++j) slots.emplace_back(i, j);
  }

  const uint64_t total = uint64_t{1} << num_slots;
  for (uint64_t mask = 0; mask < total; ++mask) {
    Digraph graph(num_nodes);
    for (int bit = 0; bit < num_slots; ++bit) {
      if ((mask >> bit) & 1) {
        TREL_CHECK(graph.AddArc(slots[bit].first, slots[bit].second).ok());
      }
    }
    fn(graph);
  }
  return static_cast<int64_t>(total);
}

Digraph HubDag(NodeId num_sources, NodeId num_hubs, NodeId num_sinks,
               uint64_t seed) {
  TREL_CHECK_GT(num_sources, 0);
  TREL_CHECK_GT(num_hubs, 0);
  TREL_CHECK_GT(num_sinks, 0);
  const NodeId hub_base = num_sources;
  const NodeId sink_base = num_sources + num_hubs;
  Digraph graph(num_sources + num_hubs + num_sinks);
  Random rng(seed);
  std::unordered_set<uint64_t> used;
  for (NodeId s = 0; s < num_sources; ++s) {
    const int picks = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < picks; ++i) {
      const NodeId h =
          hub_base + static_cast<NodeId>(rng.Uniform(num_hubs));
      if (used.insert(PairKey(s, h)).second) {
        TREL_CHECK(graph.AddArc(s, h).ok());
      }
    }
  }
  for (NodeId h = 0; h < num_hubs; ++h) {
    // Each hub reaches its own random half of the sinks, so different
    // hubs' sink sets interleave — that interleaving is what shreds the
    // interval labeling of the sources upstream.
    for (NodeId t = 0; t < num_sinks; ++t) {
      if (rng.Bernoulli(0.5)) {
        TREL_CHECK(graph.AddArc(hub_base + h, sink_base + t).ok());
      }
    }
  }
  // Hub-free shortcuts: paths that no hub lies on.
  for (NodeId s = 0; s < num_sources; s += 16) {
    const NodeId t = sink_base + static_cast<NodeId>(rng.Uniform(num_sinks));
    if (used.insert(PairKey(s, t)).second) {
      TREL_CHECK(graph.AddArc(s, t).ok());
    }
  }
  return graph;
}

Digraph SampleDagOverOrder(NodeId num_nodes, uint64_t seed) {
  TREL_CHECK_GT(num_nodes, 0);
  Digraph graph(num_nodes);
  Random rng(seed);
  for (NodeId i = 0; i < num_nodes; ++i) {
    for (NodeId j = i + 1; j < num_nodes; ++j) {
      if (rng.Bernoulli(0.5)) TREL_CHECK(graph.AddArc(i, j).ok());
    }
  }
  return graph;
}

}  // namespace trel

#include "core/closure_stats.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace trel {

std::string ClosureStats::ToString() const {
  std::ostringstream os;
  os << "nodes " << num_nodes << ", arcs " << num_arcs << " ("
     << num_tree_arcs << " tree, " << (num_arcs - num_tree_arcs)
     << " non-tree), roots " << num_roots << "\n";
  os << "intervals " << total_intervals << " (storage " << storage_units
     << ", arena " << arena_bytes << " bytes), avg/node "
     << avg_intervals_per_node << ", max/node "
     << max_intervals_per_node << ", single-interval nodes "
     << 100.0 * single_interval_fraction << "%\n";
  os << "tree depth max " << tree_depth_max << ", avg " << tree_depth_avg
     << "\n";
  os << "interval histogram:";
  for (size_t k = 0; k < interval_histogram.size(); ++k) {
    os << " " << k << (k + 1 == interval_histogram.size() ? "+" : "") << ":"
       << interval_histogram[k];
  }
  os << "\n";
  return os.str();
}

ClosureStats ComputeClosureStats(const Digraph& graph, const TreeCover& cover,
                                 const CompressedClosure& closure,
                                 int histogram_buckets) {
  TREL_CHECK_GE(histogram_buckets, 2);
  TREL_CHECK_EQ(graph.NumNodes(), closure.NumNodes());
  TREL_CHECK_EQ(graph.NumNodes(), cover.NumNodes());
  ClosureStats stats;
  stats.num_nodes = graph.NumNodes();
  stats.num_arcs = graph.NumArcs();
  stats.interval_histogram.assign(histogram_buckets, 0);

  stats.num_roots = static_cast<int64_t>(cover.roots.size());
  int64_t single_interval_nodes = 0;
  int64_t depth_sum = 0;

  // Tree depths by walking parents (memoized).
  std::vector<int> depth(stats.num_nodes, -1);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    // Resolve v's depth, compressing along the way.
    std::vector<NodeId> chain;
    NodeId x = v;
    while (x != kNoNode && depth[x] < 0) {
      chain.push_back(x);
      x = cover.parent[x];
    }
    int base = x == kNoNode ? -1 : depth[x];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++base;
    }
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (cover.parent[v] != kNoNode) ++stats.num_tree_arcs;
    stats.tree_depth_max = std::max<int64_t>(stats.tree_depth_max, depth[v]);
    depth_sum += depth[v];

    const int64_t k = closure.IntervalCountOf(v);
    stats.total_intervals += k;
    stats.max_intervals_per_node = std::max(stats.max_intervals_per_node, k);
    if (k == 1) ++single_interval_nodes;
    const int bucket =
        static_cast<int>(std::min<int64_t>(k, histogram_buckets - 1));
    ++stats.interval_histogram[bucket];
  }

  stats.storage_units = 2 * stats.total_intervals;
  stats.arena_bytes = closure.ArenaByteSize();
  if (stats.num_nodes > 0) {
    stats.avg_intervals_per_node =
        static_cast<double>(stats.total_intervals) / stats.num_nodes;
    stats.single_interval_fraction =
        static_cast<double>(single_interval_nodes) / stats.num_nodes;
    stats.tree_depth_avg = static_cast<double>(depth_sum) / stats.num_nodes;
  }
  return stats;
}

}  // namespace trel

#include "baselines/tree_cover_index.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/random.h"

namespace trel {
namespace {

// Thread-local scratch for the pruned fallback DFS, so concurrent
// readers never contend and repeated queries reuse warm buffers.  The
// visited set is a stamp vector: bumping the stamp clears it in O(1).
struct SearchScratch {
  std::vector<uint32_t> stamp;
  uint32_t cur = 0;
  std::vector<NodeId> stack;

  void Begin(NodeId n) {
    if (stamp.size() < static_cast<size_t>(n)) {
      stamp.assign(static_cast<size_t>(n), 0);
      cur = 0;
    }
    if (++cur == 0) {  // Stamp wrap: hard-clear once every 2^32 searches.
      std::fill(stamp.begin(), stamp.end(), 0);
      cur = 1;
    }
    stack.clear();
  }
};

SearchScratch& Scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace

TreeCoverIndex TreeCoverIndex::Build(const Digraph& graph, int num_trees,
                                     uint64_t seed) {
  TREL_CHECK(num_trees >= 1);
  TreeCoverIndex index;
  const NodeId n = graph.NumNodes();
  index.num_nodes_ = n;
  index.num_trees_ = num_trees;
  index.labels_.assign(static_cast<size_t>(n) * num_trees, TreeLabel{});

  // Freeze the adjacency as CSR for the fallback DFS.
  index.adj_offset_.assign(static_cast<size_t>(n) + 1, 0);
  index.adj_.reserve(static_cast<size_t>(graph.NumArcs()));
  for (NodeId v = 0; v < n; ++v) {
    const auto& out = graph.OutNeighbors(v);
    index.adj_.insert(index.adj_.end(), out.begin(), out.end());
    index.adj_offset_[static_cast<size_t>(v) + 1] =
        static_cast<int64_t>(index.adj_.size());
  }

  Random rng(seed);
  std::vector<NodeId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // Iterative DFS frames: node plus the next out-neighbor slot to try.
  std::vector<std::pair<NodeId, int64_t>> stack;
  std::vector<uint8_t> visited;
  for (int t = 0; t < num_trees; ++t) {
    // Random start order plus per-node random out-arc order make the k
    // postorders independent — that independence is what lets k small
    // intervals refute most non-reachable pairs.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(static_cast<uint64_t>(i))]);
    }
    visited.assign(static_cast<size_t>(n), 0);
    int32_t next_rank = 0;
    std::vector<NodeId> shuffled_out;
    for (NodeId root : order) {
      if (visited[root]) continue;
      visited[root] = 1;
      stack.clear();
      stack.emplace_back(root, index.adj_offset_[root]);
      while (!stack.empty()) {
        auto& [v, cursor] = stack.back();
        if (cursor < index.adj_offset_[static_cast<size_t>(v) + 1]) {
          // Lazy Fisher-Yates over v's CSR run: draw a random untried
          // slot and swap it into `cursor`'s position.  Reordering adj_
          // in place is harmless — a run's neighbor ORDER never matters
          // to queries or to the label fold below, only its membership.
          const int64_t end = index.adj_offset_[static_cast<size_t>(v) + 1];
          const int64_t pick =
              cursor + static_cast<int64_t>(
                           rng.Uniform(static_cast<uint64_t>(end - cursor)));
          std::swap(index.adj_[cursor], index.adj_[pick]);
          const NodeId w = index.adj_[cursor];
          ++cursor;
          if (!visited[w]) {
            visited[w] = 1;
            stack.emplace_back(w, index.adj_offset_[w]);
          }
          continue;
        }
        // Finish v: in a DAG every out-neighbor finished already, so its
        // interval is final — fold the children's lows in now.
        const int32_t rank = next_rank++;
        int32_t lo = rank;
        for (int64_t a = index.adj_offset_[v];
             a < index.adj_offset_[static_cast<size_t>(v) + 1]; ++a) {
          lo = std::min(lo, index.LabelOf(index.adj_[a], t).lo);
        }
        TreeLabel& label =
            index.labels_[static_cast<size_t>(v) * num_trees + t];
        label.lo = lo;
        label.hi = rank;
        stack.pop_back();
      }
    }
    TREL_CHECK(next_rank == n);
  }
  return index;
}

bool TreeCoverIndex::ReachesTraced(NodeId u, NodeId v,
                                   ProbeTrace* trace) const {
  TREL_CHECK(u >= 0 && u < num_nodes_);
  TREL_CHECK(v >= 0 && v < num_nodes_);
  trace->tag = ProbeTag::kSlot;
  trace->extras_probes = 0;
  if (u == v) return true;
  if (!LabelsAdmit(u, v)) {
    trace->tag = ProbeTag::kFilterReject;
    trace->extras_probes = static_cast<uint32_t>(num_trees_);
    return false;
  }
  // Label-pruned DFS: expand only nodes whose labels still admit v.
  trace->tag = ProbeTag::kFallback;
  SearchScratch& scratch = Scratch();
  scratch.Begin(num_nodes_);
  scratch.stamp[u] = scratch.cur;
  scratch.stack.push_back(u);
  uint32_t expanded = 0;
  while (!scratch.stack.empty()) {
    const NodeId x = scratch.stack.back();
    scratch.stack.pop_back();
    ++expanded;
    for (int64_t a = adj_offset_[x];
         a < adj_offset_[static_cast<size_t>(x) + 1]; ++a) {
      const NodeId w = adj_[a];
      if (w == v) {
        trace->extras_probes = expanded;
        return true;
      }
      if (scratch.stamp[w] != scratch.cur && LabelsAdmit(w, v)) {
        scratch.stamp[w] = scratch.cur;
        scratch.stack.push_back(w);
      }
    }
  }
  trace->extras_probes = expanded;
  return false;
}

}  // namespace trel

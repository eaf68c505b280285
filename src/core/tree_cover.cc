#include "core/tree_cover.h"


#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "graph/topology.h"

namespace trel {
namespace {

// Fills children/roots from parent[] and returns the completed cover.
TreeCover FinishCover(std::vector<NodeId> parent) {
  TreeCover cover;
  const NodeId n = static_cast<NodeId>(parent.size());
  cover.children.resize(parent.size());
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == kNoNode) {
      cover.roots.push_back(v);
    } else {
      cover.children[parent[v]].push_back(v);
    }
  }
  cover.parent = std::move(parent);
  return cover;
}

// Alg1 counts predecessors in blocks of this many topological ranks, one
// pass over the graph per block.  Each rank keeps one 64-byte row of the
// block's bits, so memory stays linear in n.
constexpr int64_t kPredBlock = 512;
constexpr int kPredBlockWords = static_cast<int>(kPredBlock / 64);

// Alg1 (optimum tree-cover): give each node the immediate predecessor
// with the largest predecessor set as tree parent, where
// pred(j) = union over immediate predecessors i of pred(i) + {i}.
// Parents depend only on the exact sizes |pred(j)|, so those are counted
// one block of topological ranks at a time: for block [b0, b1), ranks
// from b0 up each OR their in-neighbours' rows (those neighbours' pred
// bits in the block) and the neighbours' own bits.  In-neighbours are
// visited by descending rank, and the first one below b0 ends the visit:
// neither it nor any later one has a bit in the block.
// O((n + m) * n / 512) word operations and O(n + m) memory.
std::vector<NodeId> OptimalParents(const Digraph& graph,
                                   const std::vector<NodeId>& topo) {
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> rank(n);
  for (NodeId r = 0; r < n; ++r) rank[topo[r]] = r;

  // In-neighbour ranks per rank (CSR), each run sorted descending.
  std::vector<int64_t> in_begin(static_cast<size_t>(n) + 1, 0);
  for (NodeId r = 0; r < n; ++r) {
    in_begin[r + 1] = in_begin[r] + graph.InDegree(topo[r]);
  }
  std::vector<NodeId> in_rank(static_cast<size_t>(in_begin[n]));
  for (NodeId r = 0; r < n; ++r) {
    const auto first = in_rank.begin() + in_begin[r];
    auto out = first;
    for (NodeId i : graph.InNeighbors(topo[r])) *out++ = rank[i];
    std::sort(first, out, std::greater<NodeId>());
  }

  // pred_count[r] = |pred| of the node at rank r, summed over blocks.
  std::vector<int64_t> pred_count(n, 0);
  // rows[(r - b0) * kPredBlockWords ...] = pred(r) restricted to the block.
  std::vector<uint64_t> rows(static_cast<size_t>(n) * kPredBlockWords);
  for (int64_t b0 = 0; b0 < n; b0 += kPredBlock) {
    const int64_t b1 = std::min<int64_t>(n, b0 + kPredBlock);
    for (int64_t r = b0; r < n; ++r) {
      uint64_t acc[kPredBlockWords] = {};
      for (int64_t k = in_begin[r]; k < in_begin[r + 1]; ++k) {
        const int64_t i = in_rank[k];
        if (i < b0) break;
        const uint64_t* from = rows.data() + (i - b0) * kPredBlockWords;
        for (int w = 0; w < kPredBlockWords; ++w) acc[w] |= from[w];
        if (i < b1) acc[(i - b0) >> 6] |= uint64_t{1} << ((i - b0) & 63);
      }
      uint64_t* row = rows.data() + (r - b0) * kPredBlockWords;
      int64_t count = 0;
      for (int w = 0; w < kPredBlockWords; ++w) {
        row[w] = acc[w];
        count += __builtin_popcountll(acc[w]);
      }
      pred_count[r] += count;
    }
  }

  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId j = 0; j < n; ++j) {
    NodeId best = kNoNode;
    int64_t best_count = 0;
    for (NodeId i : graph.InNeighbors(j)) {
      // Deterministic tie-break on node id keeps builds reproducible; the
      // optimality theorem is indifferent to ties.
      const int64_t count = pred_count[rank[i]];
      if (best == kNoNode || count > best_count ||
          (count == best_count && i < best)) {
        best = i;
        best_count = count;
      }
    }
    parent[j] = best;
  }
  return parent;
}

std::vector<NodeId> DfsParents(const Digraph& graph,
                               const std::vector<NodeId>& roots) {
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<bool> visited(n, false);
  std::vector<std::pair<NodeId, size_t>> stack;
  for (NodeId root : roots) {
    if (visited[root]) continue;
    visited[root] = true;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto& out = graph.OutNeighbors(u);
      if (next < out.size()) {
        const NodeId w = out[next++];
        if (!visited[w]) {
          visited[w] = true;
          parent[w] = u;
          stack.emplace_back(w, 0);
        }
      } else {
        stack.pop_back();
      }
    }
  }
  return parent;
}

}  // namespace

const char* TreeCoverStrategyName(TreeCoverStrategy strategy) {
  switch (strategy) {
    case TreeCoverStrategy::kOptimal:
      return "optimal";
    case TreeCoverStrategy::kDfs:
      return "dfs";
    case TreeCoverStrategy::kFirstParent:
      return "first_parent";
    case TreeCoverStrategy::kRandom:
      return "random";
  }
  return "unknown";
}

StatusOr<TreeCover> ComputeTreeCover(const Digraph& graph,
                                     TreeCoverStrategy strategy,
                                     uint64_t seed) {
  TREL_ASSIGN_OR_RETURN(std::vector<NodeId> topo, TopologicalOrder(graph));
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> parent(n, kNoNode);
  switch (strategy) {
    case TreeCoverStrategy::kOptimal:
      parent = OptimalParents(graph, topo);
      break;
    case TreeCoverStrategy::kDfs: {
      std::vector<NodeId> roots;
      for (NodeId v : topo) {
        if (graph.InDegree(v) == 0) roots.push_back(v);
      }
      parent = DfsParents(graph, roots);
      break;
    }
    case TreeCoverStrategy::kFirstParent:
      for (NodeId v = 0; v < n; ++v) {
        if (!graph.InNeighbors(v).empty()) parent[v] = graph.InNeighbors(v)[0];
      }
      break;
    case TreeCoverStrategy::kRandom: {
      Random rng(seed);
      for (NodeId v = 0; v < n; ++v) {
        const auto& in = graph.InNeighbors(v);
        if (!in.empty()) parent[v] = in[rng.Uniform(in.size())];
      }
      break;
    }
  }
  return FinishCover(std::move(parent));
}

const char* ChildOrderName(ChildOrder order) {
  switch (order) {
    case ChildOrder::kInsertion:
      return "insertion";
    case ChildOrder::kBySubtreeSizeAsc:
      return "subtree_asc";
    case ChildOrder::kBySubtreeSizeDesc:
      return "subtree_desc";
    case ChildOrder::kByNodeId:
      return "node_id";
  }
  return "unknown";
}

void ReorderChildren(TreeCover& cover, ChildOrder order) {
  if (order == ChildOrder::kInsertion) return;
  const NodeId n = cover.NumNodes();

  std::vector<int64_t> subtree_size;
  if (order == ChildOrder::kBySubtreeSizeAsc ||
      order == ChildOrder::kBySubtreeSizeDesc) {
    // Sizes bottom-up: process nodes in decreasing depth via a DFS
    // finish-order pass.
    subtree_size.assign(n, 1);
    std::vector<NodeId> finish_order;
    finish_order.reserve(n);
    std::vector<std::pair<NodeId, size_t>> stack;
    for (NodeId root : cover.roots) {
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        auto& [v, next] = stack.back();
        if (next < cover.children[v].size()) {
          stack.emplace_back(cover.children[v][next++], 0);
        } else {
          finish_order.push_back(v);
          stack.pop_back();
        }
      }
    }
    for (NodeId v : finish_order) {
      for (NodeId c : cover.children[v]) subtree_size[v] += subtree_size[c];
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    auto& kids = cover.children[v];
    switch (order) {
      case ChildOrder::kInsertion:
        break;
      case ChildOrder::kBySubtreeSizeAsc:
        std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
          return subtree_size[a] < subtree_size[b];
        });
        break;
      case ChildOrder::kBySubtreeSizeDesc:
        std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
          return subtree_size[a] > subtree_size[b];
        });
        break;
      case ChildOrder::kByNodeId:
        std::sort(kids.begin(), kids.end());
        break;
    }
  }
}

StatusOr<TreeCover> TreeCoverFromParents(const Digraph& graph,
                                         std::vector<NodeId> parent) {
  if (static_cast<NodeId>(parent.size()) != graph.NumNodes()) {
    return InvalidArgumentError("parent vector size mismatch");
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (parent[v] == kNoNode) continue;
    if (!graph.HasArc(parent[v], v)) {
      return InvalidArgumentError(
          "parent " + std::to_string(parent[v]) + " of node " +
          std::to_string(v) + " is not an immediate predecessor");
    }
  }
  return FinishCover(std::move(parent));
}

}  // namespace trel

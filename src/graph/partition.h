#ifndef TREL_GRAPH_PARTITION_H_
#define TREL_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "graph/digraph.h"

namespace trel {

// Edge-cut partitioning of a DAG into K contiguous topological ranges,
// plus a hub cover of the cut arcs (DESIGN.md §"Sharded query service").
//
// The partitioner works in topological position space: a cut at position
// p splits the order into [0, p) and [p, n); the arcs it severs are
// exactly those spanning p.  K-1 cut points are chosen near the
// equal-size positions, each slid within a slack window to the position
// with the fewest spanning arcs — contiguous topo ranges guarantee that
// shard-local subgraphs are themselves DAGs and that every arc either
// stays inside one shard or runs forward across shards.
//
// Hubs are a greedy vertex cover of the cut arcs: every arc that crosses
// shards has at least one hub endpoint.  That invariant is what makes
// the sharded service's boundary index exact — any cross-shard path must
// pass through a hub, so per-node "which hubs do I reach / reach me"
// labels witness all cross-shard reachability.  Hubs stay members of
// their home shard; being a hub only adds them to the global label
// layer.

struct PartitionOptions {
  int num_shards = 4;

  // Each cut point may slide this fraction of n away from its equal-split
  // position while hunting for a low-crossing cut.
  double window_fraction = 0.05;
};

struct Partition {
  int num_shards = 1;

  // node -> shard in [0, num_shards).
  std::vector<int32_t> shard_of;

  // Hub flags and the hub list (ascending node id).  Every cut arc has a
  // hub endpoint.
  std::vector<uint8_t> is_hub;
  std::vector<NodeId> hubs;

  // Per-shard node counts.
  std::vector<int64_t> shard_nodes;

  int64_t cut_arcs = 0;
  int64_t total_arcs = 0;

  double EdgeCutFraction() const {
    return total_arcs == 0
               ? 0.0
               : static_cast<double>(cut_arcs) / static_cast<double>(total_arcs);
  }
};

// Partitions `graph` (which must be a DAG; cycles fail with the
// topological sort's FailedPrecondition).  num_shards must be >= 1.
// Shards may be empty when the graph has fewer nodes than shards.
//
// The hub cover is small only on clustered input, where cuts fall
// between clusters (about 2% of the nodes on the KB generators' shapes).
// On unclustered input it is not: RandomDag(20000, 2.0, 1) at K = 4 gets
// 9638 hubs, and the sharded service's boundary, two hub bitsets per
// node, grows as hubs × nodes (48.3 MB there; DESIGN.md §7).
StatusOr<Partition> PartitionDag(const Digraph& graph,
                                 const PartitionOptions& options);

}  // namespace trel

#endif  // TREL_GRAPH_PARTITION_H_

#ifndef TREL_GRAPH_GENERATORS_H_
#define TREL_GRAPH_GENERATORS_H_

#include <cstdint>
#include <functional>

#include "graph/digraph.h"

namespace trel {

// Synthetic workloads.  The paper's evaluation ("Following [1], synthetic
// graphs were used as data sets") is parameterized by node count and
// average out-degree; the generators here reproduce that methodology plus
// the special families used in Sections 3.2 and 3.3.

// Random DAG with `num_nodes` nodes and round(num_nodes * avg_out_degree)
// distinct arcs, sampled uniformly over ordered pairs (i, j) with i < j in
// a fixed topological order (node ids are the order).  This matches the
// Agrawal–Jagadish VLDB'87 methodology the paper cites: acyclicity is
// guaranteed by construction, arcs are otherwise uniform.  The arc count
// is capped at the DAG maximum n(n-1)/2.
Digraph RandomDag(NodeId num_nodes, double avg_out_degree, uint64_t seed);

// Random tree: node 0 is the root; each node i >= 1 gets a uniformly
// random parent in [0, i).  Arcs run parent -> child.
Digraph RandomTree(NodeId num_nodes, uint64_t seed);

// Complete tree with the given branching factor and depth (depth 0 is a
// single root).  Arcs run parent -> child.
Digraph CompleteTree(int branching, int depth);

// Layered DAG: `layers` layers of `width` nodes; each (u, w) pair in
// consecutive layers is an arc with probability `arc_prob`.
Digraph LayeredDag(int layers, int width, double arc_prob, uint64_t seed);

// Complete bipartite graph: every one of `num_top` source nodes has an arc
// to every one of `num_bottom` sink nodes.  The paper's worst case for
// interval compression (Figure 3.6): Theta(num_top * num_bottom) intervals.
Digraph CompleteBipartite(NodeId num_top, NodeId num_bottom);

// The Figure 3.7 fix: same reachability as CompleteBipartite but routed
// through one intermediary node, collapsing the closure to O(n) intervals.
// Node layout: [0, num_top) sources, num_top = intermediary,
// (num_top, num_top + num_bottom] sinks.
Digraph BipartiteWithIntermediary(NodeId num_top, NodeId num_bottom);

// Hub-dominated DAG: `num_sources` source nodes each pick 1-3 of the
// `num_hubs` hub nodes; every hub fans out to a random ~half of the
// `num_sinks` sink nodes; plus a sprinkle of direct source -> sink arcs
// (about one per 16 sources) that bypass the hubs entirely.  Node layout:
// [0, num_sources) sources, then hubs, then sinks.
//
// This is the worst case of the interval labeling: almost every arc
// touches one of a handful of hubs, yet each hub's sink set is a
// different random subset, so the labeling fragments into
// Theta(num_sources * num_sinks) intervals (each source's sink
// reachability is a union of scattered postorder runs) while 2-hop hub
// labels would stay at a few entries per node.
Digraph HubDag(NodeId num_sources, NodeId num_hubs, NodeId num_sinks,
               uint64_t seed);

// Chain-structured DAG: `num_chains` explicit paths of `chain_length`
// nodes each (node w * chain_length + i, arcs along ascending i), plus
// random cross arcs between DIFFERENT chains until the total arc count
// reaches round(n * avg_degree).  A cross arc always runs from a smaller
// to a strictly larger in-chain position, so node id order is a
// topological order and acyclicity holds by construction.
//
// This is the chain-fast publish tier's home turf (DESIGN.md §"Publish
// strategies"): the greedy path cover recovers ~num_chains chains, so
// BuildChainLabeling needs ceil(num_chains / 64) cheap passes where
// the optimal-cover build pays Alg1's predecessor count and per-arc
// antichain merges — while
// the cross arcs keep the closure dense enough that the build time
// actually matters.  avg_degree counts ALL arcs (the n - num_chains
// chain arcs included) and must be >= their share.
Digraph ChainedDag(int num_chains, NodeId chain_length, double avg_degree,
                   uint64_t seed);

// Clustered DAG: `num_clusters` contiguous-id clusters of `cluster_size`
// nodes each, with round(n * avg_out_degree) total arcs.  All arcs run
// from a smaller to a larger node id, so node id order is topological
// and acyclicity holds by construction.  A `cross_fraction` share of the
// arcs cross clusters; every cross arc leaves through one of the last
// `gateways` nodes of its source cluster (the cluster's "gateways"), so
// cross-cluster traffic concentrates on ~num_clusters * gateways nodes.
// The rest of the arcs are uniform intra-cluster pairs.
//
// This is the sharded service's home turf: a topo-range partitioner cuts
// between clusters at a small edge-cut fraction, and the greedy hub
// cover of the cut arcs recovers the gateways (see graph/partition.h).
// RandomDag is the wrong shape for that experiment — its uniform arc
// spans make every cut sever Theta(m) arcs.
Digraph ClusteredDag(int num_clusters, NodeId cluster_size,
                     double avg_out_degree, int gateways,
                     double cross_fraction, uint64_t seed);

// Enumerates every DAG over the fixed topological order 0 < 1 < ... < n-1:
// all 2^(n(n-1)/2) subsets of the arcs (i, j), i < j.  This is the
// population behind the paper's Figure 3.12 sensitivity experiment.
// Practical for n <= 6 or so; aborts if n(n-1)/2 > 40.
// Returns the number of graphs visited.
int64_t EnumerateDagsOverOrder(NodeId num_nodes,
                               const std::function<void(const Digraph&)>& fn);

// One uniform sample from the same population (each possible arc present
// independently with probability 1/2).
Digraph SampleDagOverOrder(NodeId num_nodes, uint64_t seed);

}  // namespace trel

#endif  // TREL_GRAPH_GENERATORS_H_

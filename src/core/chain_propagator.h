#ifndef TREL_CORE_CHAIN_PROPAGATOR_H_
#define TREL_CORE_CHAIN_PROPAGATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/chain_cover.h"
#include "core/labeling.h"
#include "core/tree_cover.h"
#include "graph/digraph.h"

namespace trel {

// Chain-indexed fast full build of the interval labeling.
//
// The greedy arc-threaded path cover (GreedyPathCover) is itself a valid
// tree cover: every chain is a path in the graph, so "parent = chain
// predecessor" satisfies the tree-cover invariant.  Running the paper's
// AssignPostorder + PropagateIntervals over that cover has a closed form:
// chain c's members occupy one contiguous postorder block, every member's
// intervals start at the block base, and the only per-(node, chain) datum
// is the highest block number reachable — the chain's first-reachable
// frontier.  BuildChainLabeling exploits that: one O(n + m) pass per
// 64-chain block of max-propagations replaces the per-arc antichain
// merges of the generic propagator, and the result is BIT-IDENTICAL to
// BuildLabels(graph, path cover) — same postorder numbers, same tree
// intervals, same per-node interval sets.  The price is label quality:
// the path cover is not Alg1's antichain-optimal cover, so the interval
// count can blow up (bounded by num_chains per node; the entry cap below
// aborts pathological cases).  Publishers therefore treat this as a fast
// rebuild tier and re-tighten with an Alg1 build on a cadence
// (ServiceOptions::chain_reoptimize_cadence).

// What the chain analyzer saw; the offline twin is `trel_tool chains`.
struct ChainSignals {
  NodeId num_nodes = 0;
  int64_t num_arcs = 0;
  // Greedy arc path cover size.  An upper bound on the width (Dilworth:
  // width = minimum chain cover <= any chain cover); the antichain count
  // it is compared against in docs is exactly this bound's target.
  int num_chains = 0;
  // num_chains / num_nodes: the fraction the eligibility test thresholds.
  double chain_fraction = 0.0;
  // True iff the chain-fast build is admissible for this graph under the
  // thresholds below (a mid-build entry-cap abort can still reject it).
  bool eligible = false;
};

// Eligibility thresholds.  Work is ceil(k/64) passes over n + m, and the
// worst-case interval count is k per node, so both an absolute cap and a
// width fraction gate the fast path:
//   * more than kMaxChainFastChains chains -> the blocked propagation
//     itself stops being cheap (random degree-4 DAGs sit in the
//     thousands of chains; chain-structured feeds in the tens).
//   * num_chains > n * kMaxChainWidthFraction -> even if cheap to build,
//     labels could carry O(k) intervals per node on a graph Alg1 keeps
//     near one — too much read-path regression for a write-path win.
//   * kMaxChainEntriesPerNode * n emitted intervals aborts mid-build
//     (ResourceExhausted) as a backstop for adversarial shapes that pass
//     the width gates but still fan every chain into every node.
constexpr int kMaxChainFastChains = 512;
constexpr double kMaxChainWidthFraction = 1.0 / 16.0;
constexpr int64_t kMaxChainEntriesPerNode = 48;

// A complete chain-fast labeling: everything DynamicClosure needs to
// adopt it or CompressedClosure needs to export it.
struct ChainBuild {
  // The path cover as a TreeCover (parent = chain predecessor), valid for
  // AdoptCover / FromParts.
  TreeCover cover;
  // The labeling; bit-identical to BuildLabels(graph, cover, options).
  NodeLabels labels;
  // (postorder, node) ascending — free here (block layout), saves the
  // exporter's O(n log n) sort.
  std::vector<std::pair<Label, NodeId>> sorted_directory;
  ChainSignals signals;
};

// Cheap pre-flight: topological order + greedy path cover + threshold
// check, no label work.  O(n + m).  Fails with FailedPrecondition on
// cyclic graphs.
StatusOr<ChainSignals> AnalyzeChains(const Digraph& graph);

// Runs the full chain-fast build.  Fails with FailedPrecondition on
// cycles, InvalidArgument on bad options (merge_adjacent is unsupported:
// the closed form above holds for raw antichains only) or on a numbering
// past the arena's 32-bit labels (as BuildLabels does), and
// ResourceExhausted when the entry cap trips mid-build — callers then
// fall back to the Alg1 path.  The width thresholds are deliberately NOT
// enforced here: auto-mode selectors consult AnalyzeChains (or the
// returned signals) first, while TREL_PUBLISH=chain forces the build on
// any graph and the entry cap alone backstops it.
StatusOr<ChainBuild> BuildChainLabeling(const Digraph& graph,
                                        const LabelingOptions& options);

}  // namespace trel

#endif  // TREL_CORE_CHAIN_PROPAGATOR_H_

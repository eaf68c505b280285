#ifndef TREL_CORE_CLOSURE_STATS_H_
#define TREL_CORE_CLOSURE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/compressed_closure.h"
#include "core/tree_cover.h"
#include "graph/digraph.h"

namespace trel {

// Descriptive statistics of a compressed closure, for the CLI `stats`
// command, benches, and regression tests.  All quantities derive from
// the labels; nothing here affects queries.
struct ClosureStats {
  int64_t num_nodes = 0;
  int64_t num_arcs = 0;
  int64_t num_tree_arcs = 0;
  int64_t num_roots = 0;

  int64_t total_intervals = 0;
  int64_t storage_units = 0;  // 2 * total_intervals (paper's measure).
  // Bytes held by the closure's flat query arena (slots + Eytzinger
  // extras + filters + directory) — the machine-level counterpart of the
  // paper's abstract storage-unit measure.
  int64_t arena_bytes = 0;
  int64_t max_intervals_per_node = 0;
  double avg_intervals_per_node = 0.0;
  // interval_histogram[k] = number of nodes carrying exactly k intervals,
  // for k in [0, interval_histogram.size()); the last bucket aggregates
  // everything at or above it.
  std::vector<int64_t> interval_histogram;

  int64_t tree_depth_max = 0;  // Root depth = 0.
  double tree_depth_avg = 0.0;

  // Fraction of nodes answerable from their single tree interval — the
  // paper's best case ("Most successors of a node can be reached solely
  // through tree arcs").
  double single_interval_fraction = 0.0;

  std::string ToString() const;
};

// Computes stats for `closure` built over `graph` with tree cover
// `cover`.  The closure keeps no cover (queries need only its labels), so
// the caller that chose one passes it in; the depth and tree-arc figures
// come from it.  `histogram_buckets` bounds the histogram length (>= 2).
ClosureStats ComputeClosureStats(const Digraph& graph, const TreeCover& cover,
                                 const CompressedClosure& closure,
                                 int histogram_buckets = 8);

}  // namespace trel

#endif  // TREL_CORE_CLOSURE_STATS_H_

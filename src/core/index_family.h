#ifndef TREL_CORE_INDEX_FAMILY_H_
#define TREL_CORE_INDEX_FAMILY_H_

#include <cstdint>

#include "graph/digraph.h"

namespace trel {

// The reachability-index families a snapshot can be served from.  The
// paper's interval antichains (kIntervals) are the default and the only
// family that supports every query shape (successor enumeration,
// predecessors, WithDelta overlays).  Every snapshot holds the interval
// arena whatever its family, so another family is a point-read
// accelerator whose bytes add to the arena's, and it earns its place only
// where its probe beats the arena's:
//   kHop — 2-hop hub labels over the high-degree spine plus an interval
//          index on the hub-free residual (see hop_label_index.h).  Wins
//          when a few hub nodes carry most paths.
// The GRAIL-style tree covers (baselines/tree_cover_index.h) are only a
// comparator: on the dense shapes they save bytes on, their pruned DFS
// answers 9-55x slower than the arena (DESIGN.md §6b).
enum class IndexFamily : uint8_t {
  kIntervals = 0,
  kHop = 1,
};
constexpr int kNumIndexFamilies = 2;

// "intervals" / "hop".
const char* IndexFamilyName(IndexFamily family);

// How a publisher picks the family for a full export: let the selector
// score the graph, or force one family (the TREL_INDEX env values
// "auto" / "intervals" / "hop").
enum class IndexFamilySetting : uint8_t {
  kAuto = 0,
  kForceIntervals = 1,
  kForceHop = 2,
};

// Parses a TREL_INDEX-style value; nullptr/empty/unknown mean kAuto (the
// service must never fail to start over an env typo — the choice is
// observable on /statusz).
IndexFamilySetting ParseIndexFamilySetting(const char* value);
// Reads TREL_INDEX from the environment.
IndexFamilySetting IndexFamilySettingFromEnv();

// What the selector looked at, recorded for introspection (trel_tool
// index, tests).
struct FamilySignals {
  NodeId num_nodes = 0;
  int64_t num_arcs = 0;
  int64_t total_intervals = 0;
  // total_intervals / num_nodes: the interval labeling's blowup over the
  // one-interval-per-node ideal.  The paper's tree-like structures sit
  // near 1; the Fig 3.6 shapes reach Theta(n).
  double interval_blowup = 0.0;
  // Fraction of arcs incident to the top-kHubProbe nodes by total degree.
  // Near 1 means a few hubs carry the graph — the 2-hop regime.
  double hub_arc_fraction = 0.0;
};

// Selector thresholds, shared with tests and trel_tool so the decision
// is reproducible outside the service.  One rule: blowup >
// kMaxIntervalBlowup and hub fraction >= kMinHubArcFraction select hop
// labels (a handful of high-degree nodes carries the blowup; label them
// instead).  Everything else stays on intervals: tree-like shapes sit
// near one interval per node, and denser shapes whose intervals blow up
// without hubs (the Fig 3.6 crossings, deep random DAGs) still answer in
// two array loads from the arena the snapshot holds anyway.
constexpr double kMaxIntervalBlowup = 4.0;
constexpr double kMinHubArcFraction = 0.5;
constexpr int kHubProbe = 16;

// Scores `graph` (with the interval labeling's total interval count, as
// the would-be intervals export measures it) and picks a family.
// Deterministic; fills `signals` when non-null.
IndexFamily SelectIndexFamily(const Digraph& graph, int64_t total_intervals,
                              FamilySignals* signals = nullptr);

// Applies a forced setting, falling through to the selector on kAuto.
IndexFamily ResolveIndexFamily(IndexFamilySetting setting,
                               const Digraph& graph, int64_t total_intervals,
                               FamilySignals* signals = nullptr);

}  // namespace trel

#endif  // TREL_CORE_INDEX_FAMILY_H_

#ifndef TREL_SERVICE_SNAPSHOT_H_
#define TREL_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/closure_stats.h"
#include "core/compressed_closure.h"
#include "core/hop_label_index.h"
#include "core/index_family.h"
#include "obs/span_log.h"

namespace trel {

// One immutable, internally consistent version of the reachability index.
// QueryService's single writer publishes snapshots through a PublishedPtr
// (service/published_ptr.h); any number of readers may then query one
// concurrently without synchronization because nothing here mutates
// after construction.  QueryService::Reaches pins the snapshot for one
// call without touching its reference count, so per-query calls through
// the service scale with cores; a shared_ptr from Snapshot() is for
// callers that keep a snapshot across calls.
struct ClosureSnapshot {
  // Monotonic publication counter: epoch e+1 replaced epoch e.  Epoch 0
  // is the empty pre-Load index.
  uint64_t epoch = 0;
  // The queryable index, exported from the writer's DynamicClosure.
  CompressedClosure closure;
  // Interval-set statistics; default-initialized when
  // ServiceOptions::stats_on_publish is off.  Refreshed on *full*
  // publishes only — a delta publish carries its base's stats forward
  // (recomputing them is O(n), exactly the cost delta publication avoids),
  // so on delta snapshots they describe the last full export.
  ClosureStats stats;
  // Delta provenance: true when this snapshot was built as a
  // copy-on-write overlay over the previous one, with the number of
  // changed per-node entries the publish shipped.  Full exports leave
  // both at their defaults.
  bool delta_publish = false;
  int64_t delta_entries = 0;
  // Which publish tier produced this snapshot (obs/span_log.h): kDelta
  // for overlays, else the provenance of the exported labeling —
  // kChainFull when it came from the chain-fast path cover, kOptimalFull
  // for the Alg1 antichain-optimal cover.
  PublishStrategy publish_strategy = PublishStrategy::kOptimalFull;
  // Which index family answers point queries on this snapshot, plus the
  // hop index when family == kHop.  The interval closure above is ALWAYS
  // present — it backs WithDelta overlays, successor/predecessor
  // enumeration, and every query the family build does not cover — so a
  // family index is a point-query accelerator layered on top, never a
  // replacement, and its bytes add to the arena's.  Built on full
  // publishes only; delta publishes carry the base's family forward and
  // route queries touching changed nodes back to the (exact) overlay
  // closure via FamilyCovers below.
  IndexFamily family = IndexFamily::kIntervals;
  std::shared_ptr<const HopLabelIndex> hop_index;
  // Node-count high-water mark of the family build: ids >= family_nodes
  // were added after it and must use the interval closure.
  NodeId family_nodes = 0;
  // Footprint of the family's own labels, held in addition to the arena
  // (ServiceMetrics::View::snapshot_arena_bytes); when family ==
  // kIntervals it is the arena's byte size itself.  For /statusz and the
  // benchmarks.
  int64_t family_label_bytes = 0;
  // Publication instant on the MONOTONIC clock, captured by the writer
  // right before the atomic swap.  steady_clock by type so wall-clock
  // adjustments (NTP steps, suspend fix-ups) can never yield negative
  // ages; default-initialized to construction time so a snapshot that
  // never went through PublishLocked still reports a sane age.
  std::chrono::steady_clock::time_point created_at =
      std::chrono::steady_clock::now();

  double AgeSeconds() const {
    const double age = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - created_at)
                           .count();
    // Belt and braces: created_at is captured strictly before readers can
    // see the snapshot, but clamp anyway so no exposition path ever
    // reports a negative age.
    return age < 0.0 ? 0.0 : age;
  }

  NodeId NumNodes() const { return closure.NumNodes(); }

  // Snapshot semantics for node validity: ids the snapshot has never
  // heard of (e.g. nodes added by the writer after publication) reach
  // nothing and are reached by nothing, rather than being an error — a
  // reader holding an old snapshot cannot know what ids exist now.
  bool Reaches(NodeId u, NodeId v) const {
    if (!closure.IsValidNode(u) || !closure.IsValidNode(v)) return false;
    if (UsesFamily(u, v)) return hop_index->Reaches(u, v);
    return closure.Reaches(u, v);
  }

  // True iff the family build may answer for `x`: the node existed at
  // build time and its label entry was not replaced by a delta overlay
  // since.  Soundness: the writer's dirty tracking overapproximates label
  // changes, so a node outside the overlay has the same reachability
  // relation to every other non-overlay node as at the base epoch — where
  // the family index was exact.
  bool FamilyCovers(NodeId x) const {
    return x < family_nodes && !closure.IsOverlayMember(x);
  }

  // A query pair routes to the family index only when BOTH endpoints are
  // covered; anything touching an overlay member or a post-build node
  // falls back to the interval overlay closure, which is always exact.
  bool UsesFamily(NodeId u, NodeId v) const {
    return family != IndexFamily::kIntervals && FamilyCovers(u) &&
           FamilyCovers(v);
  }

  // Traced / batch twins of Reaches with the same family dispatch and
  // the same snapshot semantics as the closure's versions (out-of-range
  // ids answer 0).  On the hop family the batch runs per query — its
  // probes are merge scans, not the arena's pipelined kernel — with tags
  // folded into `stats` (hop intersects count as fast path, residual
  // probes as extras).
  bool ReachesTraced(NodeId u, NodeId v, ProbeTrace* trace) const;
  void BatchReaches(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                    uint8_t* out, BatchKernelStats* stats) const;
  void BatchReachesTraced(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                          uint8_t* out, BatchKernelStats* stats,
                          uint8_t* tags) const;

  std::vector<NodeId> Successors(NodeId u) const {
    if (!closure.IsValidNode(u)) return {};
    return closure.Successors(u);
  }

  int64_t CountSuccessors(NodeId u) const {
    if (!closure.IsValidNode(u)) return 0;
    return closure.CountSuccessors(u);
  }
};

}  // namespace trel

#endif  // TREL_SERVICE_SNAPSHOT_H_

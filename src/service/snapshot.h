#ifndef TREL_SERVICE_SNAPSHOT_H_
#define TREL_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/compressed_closure.h"
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
  // The queryable index, exported from the writer's DynamicClosure: the
  // labels readers probe and nothing else (no tree cover, no stats).
  CompressedClosure closure;
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
    return closure.Reaches(u, v);
  }

  // Traced / batch twins of Reaches: the closure's own, which already
  // answer unknown ids with 0 (tag kSlot).
  bool ReachesTraced(NodeId u, NodeId v, ProbeTrace* trace) const {
    return closure.ReachesTraced(u, v, trace);
  }
  void BatchReaches(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                    uint8_t* out, BatchKernelStats* stats) const {
    closure.BatchReaches(pairs, n, out, stats);
  }
  void BatchReachesTraced(const std::pair<NodeId, NodeId>* pairs, int64_t n,
                          uint8_t* out, BatchKernelStats* stats,
                          uint8_t* tags) const {
    closure.BatchReachesTraced(pairs, n, out, stats, tags);
  }

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

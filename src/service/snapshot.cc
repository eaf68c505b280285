#include "service/snapshot.h"

namespace trel {
namespace {

// Folds one family-path probe outcome into the batch tallies the metrics
// layer already exposes.  Hop intersects and hub-bitset answers are
// "decided from the labels alone", so they land in fast_path next to the
// arena's slot hits; hop residual probes are extras searches.
void FoldTag(ProbeTag tag, BatchKernelStats* stats) {
  if (stats == nullptr) return;
  switch (tag) {
    case ProbeTag::kSlot:
    case ProbeTag::kOverlay:
    case ProbeTag::kHopIntersect:
    case ProbeTag::kBoundaryBitset:
      ++stats->fast_path;
      break;
    case ProbeTag::kFilterReject:
      ++stats->filter_rejects;
      break;
    case ProbeTag::kGroupReject:
      ++stats->group_rejects;
      break;
    case ProbeTag::kExtrasSearch:
    case ProbeTag::kFallback:
      ++stats->extras_searches;
      break;
  }
}

}  // namespace

bool ClosureSnapshot::ReachesTraced(NodeId u, NodeId v,
                                    ProbeTrace* trace) const {
  if (!closure.IsValidNode(u) || !closure.IsValidNode(v)) {
    trace->tag = ProbeTag::kSlot;
    trace->extras_probes = 0;
    return false;
  }
  if (UsesFamily(u, v)) return hop_index->ReachesTraced(u, v, trace);
  return closure.ReachesTraced(u, v, trace);
}

void ClosureSnapshot::BatchReaches(const std::pair<NodeId, NodeId>* pairs,
                                   int64_t n, uint8_t* out,
                                   BatchKernelStats* stats) const {
  if (family == IndexFamily::kIntervals) {
    closure.BatchReaches(pairs, n, out, stats);
    return;
  }
  ProbeTrace trace;
  for (int64_t i = 0; i < n; ++i) {
    out[i] = ReachesTraced(pairs[i].first, pairs[i].second, &trace) ? 1 : 0;
    FoldTag(trace.tag, stats);
  }
}

void ClosureSnapshot::BatchReachesTraced(const std::pair<NodeId, NodeId>* pairs,
                                         int64_t n, uint8_t* out,
                                         BatchKernelStats* stats,
                                         uint8_t* tags) const {
  if (family == IndexFamily::kIntervals) {
    closure.BatchReachesTraced(pairs, n, out, stats, tags);
    return;
  }
  ProbeTrace trace;
  for (int64_t i = 0; i < n; ++i) {
    out[i] = ReachesTraced(pairs[i].first, pairs[i].second, &trace) ? 1 : 0;
    tags[i] = static_cast<uint8_t>(trace.tag);
    FoldTag(trace.tag, stats);
  }
}

}  // namespace trel

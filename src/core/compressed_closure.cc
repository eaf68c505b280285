#include "core/compressed_closure.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace trel {

const char* ProbeTagName(ProbeTag tag) {
  switch (tag) {
    case ProbeTag::kSlot:
      return "slot";
    case ProbeTag::kFilterReject:
      return "filter";
    case ProbeTag::kGroupReject:
      return "group";
    case ProbeTag::kExtrasSearch:
      return "extras";
    case ProbeTag::kOverlay:
      return "overlay";
    case ProbeTag::kHopIntersect:
      return "hop";
    case ProbeTag::kFallback:
      return "fallback";
    case ProbeTag::kBoundaryBitset:
      return "boundary";
  }
  return "unknown";
}

namespace {

// Applies `visit` (returning false to stop) to the intervals of `slot` in
// `arena` in ascending (lo, hi) order: the inline first interval, then an
// in-order walk of the Eytzinger extras run.
template <typename Fn>
void VisitIntervals(const LabelArena& arena, NodeId slot, Fn&& visit) {
  const LabelArena::NodeSlot& s = arena.slots[slot];
  if (s.first.lo <= s.first.hi && !visit(s.first.Widen())) return;
  arena.ForEachExtra(slot, visit);
}

}  // namespace

CompressedClosure::CompressedClosure()
    : arena_(std::make_shared<const LabelArena>()) {}

CompressedClosure::CompressedClosure(const NodeLabels& labels,
                                     ExportHints hints) {
  num_nodes_ = static_cast<NodeId>(labels.postorder.size());
  Stopwatch arena_timer;
  auto arena = std::make_shared<LabelArena>(BuildLabelArena(
      labels, std::move(hints.sorted_directory), hints.runner));
  if (hints.arena_micros != nullptr) {
    *hints.arena_micros = arena_timer.ElapsedMicros();
  }
  // The interval total falls out of the arena shape: every non-empty
  // first plus each slot's extras (extras.size() would overcount — runs
  // carry a summary slot).
  total_intervals_ = 0;
  for (NodeId v = 0; v < arena->num_nodes(); ++v) {
    total_intervals_ += arena->IntervalCount(v);
  }
  arena_ = std::move(arena);
}

StatusOr<CompressedClosure> CompressedClosure::Build(
    const Digraph& graph, const ClosureOptions& options) {
  TREL_ASSIGN_OR_RETURN(TreeCover cover,
                        ComputeTreeCover(graph, options.strategy,
                                         options.seed));
  ReorderChildren(cover, options.child_order);
  TREL_ASSIGN_OR_RETURN(NodeLabels labels,
                        BuildLabels(graph, cover, options.labeling));
  return CompressedClosure(labels, {});
}

CompressedClosure CompressedClosure::FromParts(const NodeLabels& labels,
                                               ExportHints hints) {
  TREL_CHECK_EQ(labels.postorder.size(), labels.intervals.size());
  return CompressedClosure(labels, std::move(hints));
}

CompressedClosure CompressedClosure::WithDelta(const CompressedClosure& base,
                                               const ClosureDelta& delta) {
  TREL_CHECK_GE(delta.num_nodes, base.num_nodes_)
      << "node ids are never recycled; a shrinking universe means the delta "
         "came from a different index lineage";
  CompressedClosure result;
  result.arena_ = base.arena_;
  result.num_nodes_ = delta.num_nodes;

  // The new overlay: every delta entry, plus each node of the old overlay
  // the delta leaves alone (copied from the old overlay arena).  `slot_of`
  // doubles as the "taken from the delta" mark until slots are assigned.
  // Base numbers the overlay supersedes: the old overlay's, plus those of
  // base-layer nodes the delta overlays for the first time.
  const NodeId base_layer_nodes = result.arena_->num_nodes();
  const auto by_postorder = [](const OverlayMember& a,
                               const OverlayMember& b) {
    return a.postorder < b.postorder;
  };
  std::vector<OverlayMember> members;
  std::vector<int32_t> slot_of(static_cast<size_t>(delta.num_nodes),
                               kNotOverlaid);
  std::vector<Label> newly_stale;
  int64_t total = base.total_intervals_;
  NodeId prev = kNoNode;
  NodeId new_nodes_seen = 0;
  for (const NodeLabelDelta& entry : delta.entries) {
    TREL_CHECK_GT(entry.node, prev) << "delta entries must be sorted by node";
    TREL_CHECK_LT(entry.node, delta.num_nodes);
    prev = entry.node;
    // Adjust the interval total by what this entry replaces: the node's
    // current label in `base`, or nothing (new node).
    if (entry.node < base.num_nodes_) {
      total -= base.IntervalCountOf(entry.node);
      if (entry.node < base_layer_nodes && !base.IsOverlayMember(entry.node)) {
        newly_stale.push_back(result.arena_->slots[entry.node].postorder);
      }
    } else {
      ++new_nodes_seen;
    }
    total += entry.intervals.size();
    slot_of[entry.node] = 0;
    members.push_back(
        OverlayMember{entry.postorder, entry.node, &entry.intervals, kNoNode});
  }
  TREL_CHECK_EQ(new_nodes_seen, delta.num_nodes - base.num_nodes_)
      << "every node added since the base export must appear in the delta";
  result.total_intervals_ = total;
  if (delta.entries.empty()) {
    result.overlay_ = base.overlay_;  // Same node universe, same labels.
    return result;
  }

  // Old overlay slots are already in postorder order, so one sort of the
  // delta and a merge order the members.
  std::sort(members.begin(), members.end(), by_postorder);
  const auto num_delta = static_cast<std::ptrdiff_t>(members.size());
  auto overlay = std::make_shared<Overlay>();
  const LabelArena* old = nullptr;
  std::sort(newly_stale.begin(), newly_stale.end());
  if (base.overlay_ != nullptr) {
    old = &base.overlay_->arena;
    for (NodeId s = 0; s < old->num_nodes(); ++s) {
      const NodeId node = old->dir_nodes[s];
      if (slot_of[node] == kNotOverlaid) {
        members.push_back(
            OverlayMember{old->slots[s].postorder, node, nullptr, s});
      }
    }
    std::inplace_merge(members.begin(), members.begin() + num_delta,
                       members.end(), by_postorder);
    const std::vector<Label>& old_stale = base.overlay_->stale_labels;
    overlay->stale_labels.resize(old_stale.size() + newly_stale.size());
    std::merge(old_stale.begin(), old_stale.end(), newly_stale.begin(),
               newly_stale.end(), overlay->stale_labels.begin());
  } else {
    overlay->stale_labels = std::move(newly_stale);
  }
  for (size_t i = 0; i < members.size(); ++i) {
    slot_of[members[i].node] = static_cast<int32_t>(i);
  }
  overlay->arena = BuildOverlayArena(members, old);
  overlay->slot_of = std::move(slot_of);
  result.overlay_ = std::move(overlay);
  return result;
}

CompressedClosure CompressedClosure::Fold(const CompressedClosure& layered) {
  CompressedClosure result;
  result.num_nodes_ = layered.num_nodes_;
  result.total_intervals_ = layered.total_intervals_;
  if (layered.overlay_ == nullptr) {
    result.arena_ = layered.arena_;
  } else {
    const Overlay& overlay = *layered.overlay_;
    result.arena_ = std::make_shared<const LabelArena>(
        FoldOverlayArena(*layered.arena_, overlay.arena, overlay.slot_of,
                         overlay.stale_labels));
  }
  return result;
}

IntervalSet CompressedClosure::IntervalsOf(NodeId v) const {
  TREL_CHECK(IsValidNode(v));
  const LabelRef ref = LabelOf(v);
  std::vector<Interval> intervals;
  intervals.reserve(static_cast<size_t>(ref.arena->IntervalCount(ref.slot)));
  VisitIntervals(*ref.arena, ref.slot, [&](const Interval& interval) {
    intervals.push_back(interval);
    return true;
  });
  return IntervalSet::FromSortedAntichain(std::move(intervals));
}

bool CompressedClosure::ReachesWithOverlay(NodeId u, NodeId v) const {
  const ArenaLabel target = ArenaPostorderOf(v);
  const LabelRef source = LabelOf(u);
  return ArenaContains(*source.arena, *kernels_, source.slot, target);
}

void CompressedClosure::BatchReaches(const std::pair<NodeId, NodeId>* pairs,
                                     int64_t n, uint8_t* out,
                                     BatchKernelStats* stats) const {
  if (n <= 0) return;
  if (overlay_ != nullptr) {
    // Overlay snapshots take the per-query path: each probe reads its
    // source label from whichever arena holds it.
    const uint32_t num = static_cast<uint32_t>(num_nodes_);
    // One unsigned compare covers both negative ids and ids past the end.
    const auto valid = [num](NodeId id) {
      return static_cast<uint32_t>(id) < num;
    };
    for (int64_t i = 0; i < n; ++i) {
      const auto [u, v] = pairs[i];
      out[i] = valid(u) && valid(v) && (u == v || ReachesWithOverlay(u, v))
                   ? 1
                   : 0;
    }
    return;
  }
  // Overlay-free: the whole batch goes through the dispatched
  // software-pipelined kernel (the arena covers all num_nodes_ ids).
  kernels_->batch_reaches(*arena_, pairs, n, out, stats);
}

bool CompressedClosure::ReachesTraced(NodeId u, NodeId v,
                                      ProbeTrace* trace) const {
  trace->tag = ProbeTag::kSlot;
  trace->extras_probes = 0;
  const uint32_t num = static_cast<uint32_t>(num_nodes_);
  if (static_cast<uint32_t>(u) >= num || static_cast<uint32_t>(v) >= num) {
    return false;
  }
  if (u == v) return true;
  const LabelRef source = LabelOf(u);
  const bool hit = ArenaContainsTraced(*source.arena, source.slot,
                                       ArenaPostorderOf(v), trace);
  if (source.arena != arena_.get()) trace->tag = ProbeTag::kOverlay;
  return hit;
}

void CompressedClosure::BatchReachesTraced(
    const std::pair<NodeId, NodeId>* pairs, int64_t n, uint8_t* out,
    BatchKernelStats* stats, uint8_t* tags) const {
  if (n <= 0) return;
  if (overlay_ != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      ProbeTrace trace;
      out[i] = ReachesTraced(pairs[i].first, pairs[i].second, &trace) ? 1 : 0;
      tags[i] = static_cast<uint8_t>(trace.tag);
    }
    return;
  }
  kernels_->batch_reaches_tagged(*arena_, pairs, n, out, stats, tags);
}

void CompressedClosure::AppendNodesInRange(Label lo, Label hi, Label skip,
                                           std::vector<NodeId>& out) const {
  const LabelArena& arena = *arena_;
  int64_t base_it = arena.DirLowerBound(lo);
  const int64_t base_end = static_cast<int64_t>(arena.dir_labels.size());
  if (overlay_ == nullptr) {
    // Full export: the directory run [lo, hi] is contiguous — bulk-copy
    // it, splitting around the (unique) skip label if present.
    const int64_t end = arena.DirUpperBound(hi);
    const NodeId* nodes = arena.dir_nodes.data();
    if (lo <= skip && skip <= hi) {
      const int64_t s = arena.DirLowerBound(skip);
      if (s < end && arena.dir_labels[s] == skip) {
        out.insert(out.end(), nodes + base_it, nodes + s);
        out.insert(out.end(), nodes + s + 1, nodes + end);
        return;
      }
    }
    out.insert(out.end(), nodes + base_it, nodes + end);
    return;
  }
  const std::vector<Label>& stale = overlay_->stale_labels;
  const LabelArena& over = overlay_->arena;
  auto stale_it = std::lower_bound(stale.begin(), stale.end(), lo);
  int64_t over_it = over.DirLowerBound(lo);
  const int64_t over_end = static_cast<int64_t>(over.dir_labels.size());
  // Skip base entries whose number the overlay superseded.  Both runs are
  // sorted, so the stale cursor only ever moves forward.
  auto skip_stale = [&] {
    while (base_it < base_end && arena.dir_labels[base_it] <= hi) {
      while (stale_it != stale.end() && *stale_it < arena.dir_labels[base_it]) {
        ++stale_it;
      }
      if (stale_it != stale.end() && *stale_it == arena.dir_labels[base_it]) {
        ++base_it;
        continue;
      }
      break;
    }
  };
  skip_stale();
  for (;;) {
    const bool base_ok = base_it < base_end && arena.dir_labels[base_it] <= hi;
    const bool over_ok = over_it < over_end && over.dir_labels[over_it] <= hi;
    if (!base_ok && !over_ok) break;
    if (base_ok &&
        (!over_ok || arena.dir_labels[base_it] < over.dir_labels[over_it])) {
      if (arena.dir_labels[base_it] != skip) {
        out.push_back(arena.dir_nodes[base_it]);
      }
      ++base_it;
      skip_stale();
    } else {
      if (over.dir_labels[over_it] != skip) {
        out.push_back(over.dir_nodes[over_it]);
      }
      ++over_it;
    }
  }
}

int64_t CompressedClosure::CountNodesInRange(Label lo, Label hi) const {
  const LabelArena& arena = *arena_;
  int64_t count = arena.DirUpperBound(hi) - arena.DirLowerBound(lo);
  if (overlay_ != nullptr) {
    const std::vector<Label>& stale = overlay_->stale_labels;
    count -= std::upper_bound(stale.begin(), stale.end(), hi) -
             std::lower_bound(stale.begin(), stale.end(), lo);
    count += overlay_->arena.DirUpperBound(hi) -
             overlay_->arena.DirLowerBound(lo);
  }
  return count;
}

std::vector<NodeId> CompressedClosure::Successors(NodeId u) const {
  TREL_CHECK(IsValidNode(u));
  std::vector<NodeId> result;
  // Interval-set members are an antichain sorted by lo with increasing hi;
  // consecutive members may still overlap, so advance a cursor to avoid
  // double-listing.  The node's own tree interval contains its own number;
  // skipping it during enumeration (rather than erasing afterwards) keeps
  // this O(output) instead of O(output) + a linear scan.
  const LabelRef ref = LabelOf(u);
  const Label self = ref.arena->slots[ref.slot].postorder;
  Label cursor = std::numeric_limits<Label>::min();
  VisitIntervals(*ref.arena, ref.slot, [&](const Interval& interval) {
    const Label lo = std::max(interval.lo, cursor);
    if (lo > interval.hi) return true;
    AppendNodesInRange(lo, interval.hi, self, result);
    if (interval.hi == std::numeric_limits<Label>::max()) return false;
    cursor = interval.hi + 1;
    return true;
  });
  return result;
}

int64_t CompressedClosure::CountSuccessors(NodeId u) const {
  TREL_CHECK(IsValidNode(u));
  const LabelRef ref = LabelOf(u);
  const Label self = ref.arena->slots[ref.slot].postorder;
  int64_t count = 0;
  bool self_counted = false;
  Label cursor = std::numeric_limits<Label>::min();
  VisitIntervals(*ref.arena, ref.slot, [&](const Interval& interval) {
    const Label lo = std::max(interval.lo, cursor);
    if (lo > interval.hi) return true;
    count += CountNodesInRange(lo, interval.hi);
    // The cursor guarantees clipped ranges are disjoint, so u's own
    // number is counted at most once across the loop.
    if (lo <= self && self <= interval.hi) self_counted = true;
    if (interval.hi == std::numeric_limits<Label>::max()) return false;
    cursor = interval.hi + 1;
    return true;
  });
  return self_counted ? count - 1 : count;
}

std::vector<NodeId> CompressedClosure::Predecessors(NodeId v) const {
  TREL_CHECK(IsValidNode(v));
  std::vector<NodeId> result;
  const ArenaLabel target = ArenaPostorderOf(v);
  // One linear sweep of the slot array; extras are only consulted for
  // the minority of nodes whose first interval ends below the target.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (u == v) continue;
    const LabelRef ref = LabelOf(u);
    if (ArenaContains(*ref.arena, *kernels_, ref.slot, target)) {
      result.push_back(u);
    }
  }
  return result;
}

}  // namespace trel

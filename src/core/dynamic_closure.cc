#include "core/dynamic_closure.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/chain_propagator.h"
#include "graph/topology.h"

namespace trel {

ClosureOptions DynamicClosure::DefaultOptions() {
  ClosureOptions options;
  options.labeling.gap = 64;
  options.labeling.reserve = 16;
  return options;
}

DynamicClosure::DynamicClosure(const ClosureOptions& options)
    : options_(options) {
  labels_.gap = options.labeling.gap;
  labels_.reserve = options.labeling.reserve;
  TREL_CHECK_GE(labels_.gap, 1);
  TREL_CHECK_GE(labels_.reserve, 0);
  TREL_CHECK_LT(labels_.reserve, labels_.gap);
}

StatusOr<DynamicClosure> DynamicClosure::Build(const Digraph& graph,
                                               const ClosureOptions& options) {
  TREL_ASSIGN_OR_RETURN(TreeCover cover,
                        ComputeTreeCover(graph, options.strategy,
                                         options.seed));
  TREL_ASSIGN_OR_RETURN(NodeLabels labels,
                        BuildLabels(graph, cover, options.labeling));
  DynamicClosure closure(options);
  closure.graph_ = graph;
  closure.AdoptCover(cover, std::move(labels));
  return closure;
}

StatusOr<DynamicClosure> DynamicClosure::BuildWithChains(
    const Digraph& graph, const ClosureOptions& options) {
  TREL_ASSIGN_OR_RETURN(ChainBuild chain,
                        BuildChainLabeling(graph, options.labeling));
  DynamicClosure closure(options);
  closure.graph_ = graph;
  closure.AdoptCover(chain.cover, std::move(chain.labels));
  closure.cover_is_chain_ = true;
  return closure;
}

void DynamicClosure::AdoptCover(const TreeCover& cover, NodeLabels labels) {
  labels_ = std::move(labels);
  tree_parent_ = cover.parent;
  tree_children_ = cover.children;
  const NodeId n = graph_.NumNodes();
  reserve_remaining_.assign(n, labels_.reserve);
  is_refined_.assign(n, false);
  num_refined_ = 0;
  by_postorder_.clear();
  for (NodeId v = 0; v < n; ++v) {
    by_postorder_[labels_.postorder[v]] = v;
  }
  // Wholesale relabeling: every node's exported state may have moved.
  MarkAllDirty();
}

void DynamicClosure::MarkDirty(NodeId v) {
  if (!dirty_flag_[v]) {
    dirty_flag_[v] = true;
    dirty_list_.push_back(v);
  }
}

void DynamicClosure::MarkAllDirty() {
  const NodeId n = graph_.NumNodes();
  dirty_flag_.assign(n, true);
  dirty_list_.resize(n);
  for (NodeId v = 0; v < n; ++v) dirty_list_[v] = v;
}

void DynamicClosure::MarkClean() {
  for (NodeId v : dirty_list_) dirty_flag_[v] = false;
  dirty_list_.clear();
}

ClosureDelta DynamicClosure::ExportDelta() {
  ClosureDelta delta;
  delta.num_nodes = graph_.NumNodes();
  std::sort(dirty_list_.begin(), dirty_list_.end());
  delta.entries.reserve(dirty_list_.size());
  for (NodeId v : dirty_list_) {
    delta.entries.push_back(
        NodeLabelDelta{v, labels_.postorder[v], labels_.intervals[v]});
  }
  MarkClean();
  return delta;
}

void DynamicClosure::GrowNodeState() {
  labels_.postorder.push_back(0);
  labels_.tree_interval.push_back(Interval{0, 0});
  labels_.intervals.emplace_back();
  tree_parent_.push_back(kNoNode);
  tree_children_.emplace_back();
  // Dynamically inserted nodes get no refinement pool: their slack region
  // overlaps the hole used for future siblings.  Renumber()/Reoptimize()
  // re-grant full pools.
  reserve_remaining_.push_back(0);
  is_refined_.push_back(false);
  dirty_flag_.push_back(false);
  MarkDirty(static_cast<NodeId>(labels_.postorder.size()) - 1);
}

Label DynamicClosure::MaxAssigned() const {
  return by_postorder_.empty() ? 0 : by_postorder_.rbegin()->first;
}

Label DynamicClosure::PreviousAssigned(Label x) const {
  auto it = by_postorder_.lower_bound(x);
  if (it == by_postorder_.begin()) return 0;
  return std::prev(it)->first;
}

Label DynamicClosure::MaxLabelPastMax(int64_t count) const {
  // Callers pass a count whose compact numbering is known to fit, so
  // count × gap < 2^32 and the sum cannot overflow.
  return MaxAssigned() + count * labels_.gap + labels_.reserve;
}

Status DynamicClosure::CheckRoomForOneMore() const {
  if (!CompactNumberingFits(static_cast<int64_t>(NumNodes()) + 1,
                            labels_.gap, labels_.reserve)) {
    return ResourceExhaustedError(
        "a numbering of " + std::to_string(NumNodes() + 1) +
        " nodes at gap " + std::to_string(labels_.gap) +
        " passes the 32-bit label limit");
  }
  return Status::Ok();
}

void DynamicClosure::CompactNumbering() {
  ++stats_.renumbers;
  if (num_refined_ > 0) {
    Reoptimize();
  } else {
    Renumber();
  }
}

StatusOr<NodeId> DynamicClosure::AddLeafUnder(NodeId parent) {
  if (parent != kNoNode && !graph_.IsValidNode(parent)) {
    return InvalidArgumentError("invalid parent " + std::to_string(parent));
  }
  TREL_RETURN_IF_ERROR(CheckRoomForOneMore());

  const NodeId node = graph_.AddNode();
  GrowNodeState();

  if (parent == kNoNode) {
    // New root: append past the current maximum, unless that would carry
    // its number (padded by a full reserve pool) past the arena's 32-bit
    // labels; then compact the numbering, which also labels the new root.
    if (MaxLabelPastMax(1) >= kArenaLabelLimit) {
      CompactNumbering();
      return node;
    }
    // The gap below the new number is its private insertion room; the
    // interval starts above the previous node's reserve pool.
    const Label max_before = MaxAssigned();
    const Label number = max_before + labels_.gap;
    labels_.postorder[node] = number;
    labels_.tree_interval[node] =
        Interval{max_before + labels_.reserve + 1, number};
    labels_.intervals[node].Insert(labels_.tree_interval[node]);
    by_postorder_[number] = node;
    reserve_remaining_[node] = labels_.reserve;
    return node;
  }

  TREL_CHECK(graph_.AddArc(parent, node).ok());
  tree_parent_[node] = parent;
  tree_children_[parent].push_back(node);

  // Insertion hole: directly below the parent's postorder number, floored
  // by the previous assigned number plus its reserve pool (those slots
  // belong to refinements above that node) and by the parent's interval
  // start.  Any number in this hole is covered by exactly the intervals of
  // nodes that reach the parent (see DESIGN.md), so no propagation is
  // needed.
  const Label n2 = labels_.postorder[parent];
  const Label floor =
      std::max(PreviousAssigned(n2) + labels_.reserve,
               labels_.tree_interval[parent].lo - 1);
  if (n2 - floor < 2) {
    // Hole exhausted: rebuild the numbering, which restores full gaps and
    // labels the new node (it is already in the tree structure).  With
    // gap == 1 every insertion takes this path.
    CompactNumbering();
    return node;
  }
  const Label number = floor + (n2 - floor) / 2;
  TREL_CHECK_GT(number, floor);
  TREL_CHECK_LT(number, n2);
  labels_.postorder[node] = number;
  labels_.tree_interval[node] = Interval{floor + 1, number};
  labels_.intervals[node].Insert(labels_.tree_interval[node]);
  by_postorder_[number] = node;
  // Grant the new leaf as much of a refinement pool as fits strictly
  // inside the hole; siblings inserted later stay above it (their floor
  // protects the full labels_.reserve).
  reserve_remaining_[node] =
      std::max<Label>(0, std::min(labels_.reserve, n2 - number - 1));
  return node;
}

void DynamicClosure::PropagateIntoPredecessors(
    NodeId start, const std::vector<Interval>& delta) {
  std::vector<NodeId> stack = {start};
  std::vector<bool> processed(graph_.NumNodes(), false);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (processed[v]) continue;
    processed[v] = true;
    ++stats_.propagation_node_visits;
    bool changed = false;
    for (const Interval& interval : delta) {
      changed |= labels_.intervals[v].Insert(interval);
    }
    // If every interval was subsumed, predecessors hold supersets already
    // (they inherited v's set when their arcs were processed) and need no
    // visit.
    if (!changed) continue;
    MarkDirty(v);
    for (NodeId p : graph_.InNeighbors(v)) {
      if (!processed[p]) stack.push_back(p);
    }
  }
}

Status DynamicClosure::AddArc(NodeId from, NodeId to) {
  if (!graph_.IsValidNode(from) || !graph_.IsValidNode(to)) {
    return InvalidArgumentError("invalid arc endpoint");
  }
  if (from == to || Reaches(to, from)) {
    return InvalidArgumentError("arc (" + std::to_string(from) + "," +
                                std::to_string(to) +
                                ") would create a cycle");
  }
  TREL_RETURN_IF_ERROR(graph_.AddArc(from, to));

  // Non-tree arc: push `to`'s interval set into `from` and its
  // predecessors.  `to`'s own tree interval travels in padded form so
  // that future refinements below `to` stay constant-time.
  std::vector<Interval> delta;
  delta.reserve(labels_.intervals[to].intervals().size());
  for (const Interval& interval : labels_.intervals[to].intervals()) {
    Interval copy = interval;
    if (interval == labels_.tree_interval[to]) {
      copy.hi += reserve_remaining_[to];
    }
    delta.push_back(copy);
  }
  PropagateIntoPredecessors(from, delta);
  return Status::Ok();
}

StatusOr<NodeId> DynamicClosure::RefineAbove(
    NodeId child, const std::vector<NodeId>& parents_ref) {
  // Callers routinely pass graph().InNeighbors(child), which AddNode()
  // below would invalidate; work on a copy.
  const std::vector<NodeId> parents = parents_ref;
  if (!graph_.IsValidNode(child)) {
    return InvalidArgumentError("invalid child node");
  }
  if (parents.empty()) {
    return InvalidArgumentError("refinement needs at least one parent");
  }
  for (NodeId p : parents) {
    if (!graph_.IsValidNode(p)) {
      return InvalidArgumentError("invalid parent node");
    }
    if (p == child || Reaches(child, p)) {
      return InvalidArgumentError("refinement would create a cycle");
    }
  }
  // Soundness: every existing immediate predecessor of `child` must be a
  // parent of the new node, so "reaches child" implies "reaches z".
  for (NodeId q : graph_.InNeighbors(child)) {
    if (std::find(parents.begin(), parents.end(), q) == parents.end()) {
      return FailedPreconditionError(
          "refinement parents must include every immediate predecessor of "
          "the child (node " +
          std::to_string(q) + " missing)");
    }
  }
  if (reserve_remaining_[child] < 1) {
    return FailedPreconditionError(
        "reserve pool of node " + std::to_string(child) +
        " exhausted; call Renumber() or Reoptimize() first");
  }
  // z's own number comes from the child's pool, but a later renumber must
  // still fit every node.
  TREL_RETURN_IF_ERROR(CheckRoomForOneMore());

  // Record which parents need interval propagation (those not already
  // reaching the child) before mutating the graph.
  std::vector<NodeId> needs_propagation;
  for (NodeId p : parents) {
    if (!Reaches(p, child)) needs_propagation.push_back(p);
  }

  const NodeId z = graph_.AddNode();
  GrowNodeState();
  for (NodeId p : parents) {
    Status s = graph_.AddArc(p, z);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  TREL_RETURN_IF_ERROR(graph_.AddArc(z, child));

  // Draw the number from the top of the child's reserve pool.  Everyone
  // holding the child's padded interval [lo, postorder + pad] with
  // pad >= remaining claims z — and, by the precondition, really does
  // reach it.
  const Label number = labels_.postorder[child] + reserve_remaining_[child];
  reserve_remaining_[child] -= 1;
  TREL_CHECK(by_postorder_.find(number) == by_postorder_.end());
  labels_.postorder[z] = number;
  labels_.tree_interval[z] =
      Interval{labels_.tree_interval[child].lo, number};
  labels_.intervals[z].Insert(labels_.tree_interval[z]);
  for (const Interval& interval : labels_.intervals[child].intervals()) {
    labels_.intervals[z].Insert(interval);
  }
  by_postorder_[number] = z;
  is_refined_[z] = true;
  ++num_refined_;

  // Parents that already reached the child need no updates (the paper's
  // constant-time case).  Others inherit z's set like a non-tree arc.
  if (!needs_propagation.empty()) {
    std::vector<Interval> delta(labels_.intervals[z].intervals().begin(),
                                labels_.intervals[z].intervals().end());
    for (NodeId p : needs_propagation) {
      PropagateIntoPredecessors(p, delta);
    }
  }
  return z;
}

Status DynamicClosure::RemoveArc(NodeId from, NodeId to) {
  if (!graph_.IsValidNode(from) || !graph_.IsValidNode(to)) {
    return InvalidArgumentError("invalid arc endpoint");
  }
  if (!graph_.HasArc(from, to)) {
    return NotFoundError("arc (" + std::to_string(from) + "," +
                         std::to_string(to) + ") not present");
  }
  TREL_RETURN_IF_ERROR(graph_.RemoveArc(from, to));

  if (num_refined_ > 0) {
    // Refined nodes sit off the tree cover with borrowed numbers; patching
    // around them is not worth the complexity.  Rebuild.
    Reoptimize();
    return Status::Ok();
  }

  if (tree_parent_[to] == from) {
    // Tree-arc deletion (paper 4.2): detach the subtree rooted at `to`,
    // renumber it past the current maximum, make it a child of the
    // virtual root, then recompute interval sets.
    tree_parent_[to] = kNoNode;
    auto& siblings = tree_children_[from];
    siblings.erase(std::find(siblings.begin(), siblings.end(), to));

    // Collect the subtree in DFS order and renumber it in postorder.
    std::vector<NodeId> subtree;
    {
      std::vector<NodeId> stack = {to};
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        subtree.push_back(v);
        for (NodeId c : tree_children_[v]) stack.push_back(c);
      }
    }
    for (NodeId v : subtree) by_postorder_.erase(labels_.postorder[v]);
    // Each such deletion moves the numbering up while the node count
    // stays put.  When the subtree would land past the arena's 32-bit
    // labels, compact the whole numbering instead; that relabels and
    // re-propagates everything itself.
    if (MaxLabelPastMax(static_cast<int64_t>(subtree.size())) >=
        kArenaLabelLimit) {
      CompactNumbering();
      return Status::Ok();
    }
    Label next = MaxAssigned();
    // Postorder re-assignment within the detached subtree.
    struct Frame {
      NodeId node;
      size_t next_child;
      Label anchor;
    };
    std::vector<Frame> stack = {{to, 0, next}};
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& kids = tree_children_[frame.node];
      if (frame.next_child < kids.size()) {
        stack.push_back({kids[frame.next_child++], 0, next});
      } else {
        next += labels_.gap;
        labels_.postorder[frame.node] = next;
        labels_.tree_interval[frame.node] =
            Interval{frame.anchor + labels_.reserve + 1, next};
        by_postorder_[next] = frame.node;
        // The fresh position has a full, unclaimed pool above it.
        reserve_remaining_[frame.node] = labels_.reserve;
        MarkDirty(frame.node);
        stack.pop_back();
      }
    }
  }
  // Both deletion kinds finish by recomputing interval sets from the tree
  // intervals in reverse topological order (the paper recomputes non-tree
  // intervals; tree numbering is preserved).
  RepropagateAll();
  return Status::Ok();
}

void DynamicClosure::RepropagateAll() {
  auto topo = TopologicalOrder(graph_);
  TREL_CHECK(topo.ok()) << "dynamic closure graph must stay acyclic";
  std::vector<NodeId> reverse_topo(topo.value().rbegin(),
                                   topo.value().rend());
  std::vector<IntervalSet> before = std::move(labels_.intervals);
  PropagateIntervals(graph_, reverse_topo, labels_, &reserve_remaining_);
  // A delta entry is (postorder, interval set), so a node whose set came
  // out unchanged, and whose number the caller did not move (RemoveArc
  // marks the renumbered subtree itself), answers the same from the base.
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    if (!(labels_.intervals[v] == before[v])) MarkDirty(v);
  }
}

void DynamicClosure::Renumber() {
  TREL_CHECK_EQ(num_refined_, 0)
      << "Renumber() with refined nodes present; use Reoptimize()";
  TreeCover cover;
  cover.parent = tree_parent_;
  cover.children = tree_children_;
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    if (tree_parent_[v] == kNoNode) cover.roots.push_back(v);
  }
  auto labels = BuildLabels(graph_, cover, options_.labeling);
  TREL_CHECK(labels.ok()) << labels.status().ToString();
  AdoptCover(cover, std::move(labels).value());
}

void DynamicClosure::Reoptimize() {
  auto rebuilt = Build(graph_, options_);
  TREL_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
  ++stats_.reoptimizes;
  Stats stats = stats_;
  *this = std::move(rebuilt).value();
  stats_ = stats;
}

int64_t DynamicClosure::CountSuccessors(NodeId u) const {
  TREL_CHECK(graph_.IsValidNode(u));
  const Label self = labels_.postorder[u];
  int64_t count = 0;
  bool self_counted = false;
  Label cursor = std::numeric_limits<Label>::min();
  for (const Interval& interval : labels_.intervals[u].intervals()) {
    const Label lo = std::max(interval.lo, cursor);
    if (lo > interval.hi) continue;
    auto first = by_postorder_.lower_bound(lo);
    auto last = by_postorder_.upper_bound(interval.hi);
    count += std::distance(first, last);
    // Clipped ranges are disjoint, so u's number is counted at most once.
    if (lo <= self && self <= interval.hi) self_counted = true;
    if (interval.hi == std::numeric_limits<Label>::max()) break;
    cursor = interval.hi + 1;
  }
  return self_counted ? count - 1 : count;
}

std::vector<NodeId> DynamicClosure::Predecessors(NodeId v) const {
  TREL_CHECK(graph_.IsValidNode(v));
  std::vector<bool> seen(graph_.NumNodes(), false);
  std::vector<NodeId> stack = {v};
  std::vector<NodeId> result;
  seen[v] = true;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    for (NodeId p : graph_.InNeighbors(x)) {
      if (!seen[p]) {
        seen[p] = true;
        result.push_back(p);
        stack.push_back(p);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<NodeId> DynamicClosure::Successors(NodeId u) const {
  TREL_CHECK(graph_.IsValidNode(u));
  std::vector<NodeId> result;
  // Skip u's own number during enumeration instead of erasing it after a
  // linear scan (see CompressedClosure::Successors).
  const Label self = labels_.postorder[u];
  Label cursor = std::numeric_limits<Label>::min();
  for (const Interval& interval : labels_.intervals[u].intervals()) {
    const Label lo = std::max(interval.lo, cursor);
    if (lo > interval.hi) continue;
    for (auto it = by_postorder_.lower_bound(lo);
         it != by_postorder_.end() && it->first <= interval.hi; ++it) {
      if (it->first == self) continue;
      result.push_back(it->second);
    }
    if (interval.hi == std::numeric_limits<Label>::max()) break;
    cursor = interval.hi + 1;
  }
  return result;
}

CompressedClosure DynamicClosure::ExportClosure(const ParallelRunner* runner,
                                                int64_t* arena_micros) const {
  // by_postorder_ already orders (number, node) ascending, so the export
  // can hand the arena builder a ready-made directory and skip its
  // O(n log n) sort.
  CompressedClosure::ExportHints hints;
  hints.runner = runner;
  hints.arena_micros = arena_micros;
  hints.sorted_directory.reserve(by_postorder_.size());
  for (const auto& [number, node] : by_postorder_) {
    hints.sorted_directory.emplace_back(number, node);
  }
  return CompressedClosure::FromParts(labels_, std::move(hints));
}


namespace {

// Snapshot format primitives: little-endian fixed-width integers.
constexpr uint64_t kSnapshotMagic = 0x74726C736E617031ULL;  // "trlsnap1"

void PutU64(std::ostream& out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.write(bytes, 8);
}

void PutI64(std::ostream& out, int64_t value) {
  PutU64(out, static_cast<uint64_t>(value));
}

bool GetU64(std::istream& in, uint64_t& value) {
  char bytes[8];
  if (!in.read(bytes, 8)) return false;
  value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[i]);
  }
  return true;
}

bool GetI64(std::istream& in, int64_t& value) {
  uint64_t raw;
  if (!GetU64(in, raw)) return false;
  value = static_cast<int64_t>(raw);
  return true;
}

}  // namespace

Status DynamicClosure::Save(std::ostream& out) const {
  const NodeId n = graph_.NumNodes();
  PutU64(out, kSnapshotMagic);
  PutI64(out, n);
  PutI64(out, labels_.gap);
  PutI64(out, labels_.reserve);
  PutI64(out, static_cast<int64_t>(options_.strategy));
  // Arcs.
  PutI64(out, graph_.NumArcs());
  for (const auto& [from, to] : graph_.Arcs()) {
    PutI64(out, from);
    PutI64(out, to);
  }
  // Per-node labels and tree structure.  Children lists are serialized
  // explicitly because their order shapes future renumberings.
  for (NodeId v = 0; v < n; ++v) {
    PutI64(out, labels_.postorder[v]);
    PutI64(out, labels_.tree_interval[v].lo);
    PutI64(out, labels_.tree_interval[v].hi);
    PutI64(out, tree_parent_[v]);
    PutI64(out, reserve_remaining_[v]);
    PutI64(out, is_refined_[v] ? 1 : 0);
    const auto& intervals = labels_.intervals[v].intervals();
    PutI64(out, static_cast<int64_t>(intervals.size()));
    for (const Interval& interval : intervals) {
      PutI64(out, interval.lo);
      PutI64(out, interval.hi);
    }
    PutI64(out, static_cast<int64_t>(tree_children_[v].size()));
    for (NodeId c : tree_children_[v]) PutI64(out, c);
  }
  PutI64(out, stats_.renumbers);
  PutI64(out, stats_.reoptimizes);
  PutI64(out, stats_.propagation_node_visits);
  if (!out.good()) return IoError("snapshot write failed");
  return Status::Ok();
}

StatusOr<DynamicClosure> DynamicClosure::Load(std::istream& in) {
  uint64_t magic;
  if (!GetU64(in, magic) || magic != kSnapshotMagic) {
    return InvalidArgumentError("not a DynamicClosure snapshot");
  }
  int64_t n64, gap, reserve, strategy, num_arcs;
  if (!GetI64(in, n64) || !GetI64(in, gap) || !GetI64(in, reserve) ||
      !GetI64(in, strategy) || !GetI64(in, num_arcs)) {
    return InvalidArgumentError("truncated snapshot header");
  }
  // Node ids are 32-bit: a larger count would wrap to another size.
  if (n64 < 0 || n64 > std::numeric_limits<NodeId>::max() || gap < 1 ||
      reserve < 0 || reserve >= gap || num_arcs < 0) {
    return InvalidArgumentError("corrupt snapshot header");
  }
  if (strategy < 0 ||
      strategy > static_cast<int64_t>(TreeCoverStrategy::kRandom)) {
    return InvalidArgumentError("unknown tree cover strategy " +
                                std::to_string(strategy));
  }
  // Every later renumber must fit the arena's 32-bit labels.
  if (!CompactNumberingFits(n64, gap, reserve)) {
    return InvalidArgumentError("snapshot numbering passes the 32-bit labels");
  }
  const NodeId n = static_cast<NodeId>(n64);
  // Every label the arena will hold: postorder numbers, tree intervals and
  // interval endpoints.
  const auto arena_label = [](int64_t x) {
    return x >= 0 && x < kArenaLabelLimit;
  };

  ClosureOptions options;
  options.strategy = static_cast<TreeCoverStrategy>(strategy);
  options.labeling.gap = gap;
  options.labeling.reserve = reserve;
  DynamicClosure closure(options);
  // The header's counts are untrusted, so nothing is sized by them: arcs
  // are buffered and per-node state grows record by record, keeping
  // memory proportional to the bytes actually read.  The graph is built
  // after the last record.
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (int64_t k = 0; k < num_arcs; ++k) {
    int64_t from, to;
    if (!GetI64(in, from) || !GetI64(in, to)) {
      return InvalidArgumentError("truncated arc list");
    }
    if (from < 0 || from >= n64 || to < 0 || to >= n64) {
      return InvalidArgumentError("corrupt arc endpoint");
    }
    arcs.emplace_back(static_cast<NodeId>(from), static_cast<NodeId>(to));
  }

  closure.labels_.gap = gap;
  closure.labels_.reserve = reserve;
  closure.num_refined_ = 0;

  for (NodeId v = 0; v < n; ++v) {
    int64_t postorder, lo, hi, parent, remaining, refined, interval_count;
    if (!GetI64(in, postorder) || !GetI64(in, lo) || !GetI64(in, hi) ||
        !GetI64(in, parent) || !GetI64(in, remaining) ||
        !GetI64(in, refined) || !GetI64(in, interval_count)) {
      return InvalidArgumentError("truncated node record");
    }
    if (!arena_label(postorder)) {
      return InvalidArgumentError("corrupt postorder number");
    }
    if (!arena_label(lo) || !arena_label(hi) || lo > hi) {
      return InvalidArgumentError("corrupt tree interval");
    }
    if (parent != kNoNode && (parent < 0 || parent >= n64)) {
      return InvalidArgumentError("corrupt tree parent");
    }
    // The pool pads the node's interval when propagated, so the padded
    // end must stay an arena label too.
    if (remaining < 0 || remaining > reserve ||
        !arena_label(postorder + remaining)) {
      return InvalidArgumentError("corrupt reserve pool");
    }
    if (interval_count < 0 || interval_count > n64 + 1) {
      return InvalidArgumentError("corrupt interval count");
    }
    closure.labels_.postorder.push_back(postorder);
    closure.labels_.tree_interval.push_back(Interval{lo, hi});
    closure.tree_parent_.push_back(static_cast<NodeId>(parent));
    closure.reserve_remaining_.push_back(remaining);
    closure.is_refined_.push_back(refined != 0);
    if (refined != 0) ++closure.num_refined_;
    IntervalSet& intervals = closure.labels_.intervals.emplace_back();
    for (int64_t k = 0; k < interval_count; ++k) {
      int64_t ilo, ihi;
      if (!GetI64(in, ilo) || !GetI64(in, ihi)) {
        return InvalidArgumentError("truncated interval record");
      }
      if (!arena_label(ilo) || !arena_label(ihi) || ilo > ihi) {
        return InvalidArgumentError("corrupt interval record");
      }
      intervals.Insert(Interval{ilo, ihi});
    }
    int64_t child_count;
    if (!GetI64(in, child_count) || child_count < 0 || child_count > n64) {
      return InvalidArgumentError("corrupt child count");
    }
    std::vector<NodeId>& children = closure.tree_children_.emplace_back();
    for (int64_t k = 0; k < child_count; ++k) {
      int64_t child;
      if (!GetI64(in, child) || child < 0 || child >= n64) {
        return InvalidArgumentError("corrupt child record");
      }
      children.push_back(static_cast<NodeId>(child));
    }
    if (closure.by_postorder_.count(postorder) > 0) {
      return InvalidArgumentError("duplicate postorder number");
    }
    closure.by_postorder_[postorder] = v;
  }
  if (!GetI64(in, closure.stats_.renumbers) ||
      !GetI64(in, closure.stats_.reoptimizes) ||
      !GetI64(in, closure.stats_.propagation_node_visits)) {
    return InvalidArgumentError("truncated stats record");
  }
  closure.graph_ = Digraph(n);
  for (const auto& [from, to] : arcs) {
    TREL_RETURN_IF_ERROR(closure.graph_.AddArc(from, to));
  }
  // A restarted process has no snapshot to be a delta base; everything is
  // dirty until the first full export.
  closure.MarkAllDirty();
  return closure;
}

}  // namespace trel

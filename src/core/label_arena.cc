#include "core/label_arena.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace trel {

namespace {

constexpr int64_t kFilterBuckets = LabelArena::kFilterWords * 64;

// A fold target's array that is too short is regrown to n + n /
// kFoldHeadroomDivisor elements.  QueryService's spare is two folds old,
// and `point_reads`' arena grows about 0.4% per fold, so without headroom
// every fold would miss the recycled memory and fault in fresh pages.
constexpr size_t kFoldHeadroomDivisor = 16;

// The builders' range check: every label an arena holds must fit its
// 32-bit form.  The label creators keep theirs below the limit (see
// interval.h), so this only fires on a bug.
void CheckArenaLabel(Label x) {
  TREL_CHECK(x >= 0 && x < kArenaLabelLimit)
      << "label " << x << " lies outside the arena's range [0, 2^32)";
}

ArenaLabel NarrowLabel(Label x) {
  CheckArenaLabel(x);
  return static_cast<ArenaLabel>(x);
}

// Narrows an interval whose endpoints were already range-checked.
ArenaInterval NarrowChecked(const Interval& interval) {
  return ArenaInterval{static_cast<ArenaLabel>(interval.lo),
                       static_cast<ArenaLabel>(interval.hi)};
}

// Writes sorted[0..k) into out[1..k] in Eytzinger (BFS) order: the
// in-order traversal of the implicit tree rooted at 1 visits ascending.
void FillEytzinger(const Interval* sorted, uint32_t k, ArenaInterval* out,
                   uint32_t i, uint32_t& pos) {
  if (i > k) return;
  FillEytzinger(sorted, k, out, 2 * i, pos);
  out[i] = NarrowChecked(sorted[pos++]);
  FillEytzinger(sorted, k, out, 2 * i + 1, pos);
}

// Smallest shift that lands `max_label` in the last filter bucket or
// below.
int FilterShiftFor(Label max_label) {
  int shift = 0;
  while ((max_label >> shift) >= kFilterBuckets) ++shift;
  return shift;
}

// Sets the coverage-filter bits of every interval in [begin, end), in any
// order, into one node's filter line.
void MarkFilter(const ArenaInterval* begin, const ArenaInterval* end,
                int shift, uint64_t* words) {
  for (const ArenaInterval* it = begin; it != end; ++it) {
    const Label b_lo = Label{it->lo} >> shift;
    const Label b_hi =
        std::min<Label>(Label{it->hi} >> shift, kFilterBuckets - 1);
    // Word-at-a-time fill: two masked writes plus a run of full words.
    // Wide intervals on dense closures span hundreds of buckets, and the
    // old bit-per-bucket loop was a measurable share of arena build time.
    const Label w_lo = b_lo >> 6;
    const Label w_hi = b_hi >> 6;
    const uint64_t first_mask = ~uint64_t{0} << (b_lo & 63);
    const uint64_t last_mask = ~uint64_t{0} >> (63 - (b_hi & 63));
    if (w_lo == w_hi) {
      words[w_lo] |= first_mask & last_mask;
    } else {
      words[w_lo] |= first_mask;
      for (Label w = w_lo + 1; w < w_hi; ++w) words[w] = ~uint64_t{0};
      words[w_hi] |= last_mask;
    }
  }
}

// Number of extras entries `slot`'s run occupies: its extras plus the
// summary, or none.
uint32_t RunLength(const LabelArena::NodeSlot& slot) {
  return slot.extra_count > 0 ? slot.extra_count + 1 : 0;
}

// Appends one zeroed filter line and marks `slot`'s extras into it; the
// run is read from `extras`, where the slot already points.
void AppendMarkedLine(const LabelArena::NodeSlot& slot,
                      const std::vector<ArenaInterval>& extras, int shift,
                      std::vector<uint64_t>& filters) {
  filters.resize(filters.size() + LabelArena::kFilterWords, 0);
  if (slot.extra_count == 0) return;
  const ArenaInterval* run = extras.data() + slot.extra_begin;
  MarkFilter(run + 1, run + slot.extra_count + 1, shift,
             filters.data() + filters.size() - LabelArena::kFilterWords);
}

// Empties `array` for a fold that appends `n` elements: its capacity is
// kept, and regrown with headroom when too short.
template <typename T>
void ClearForFold(std::vector<T>& array, size_t n) {
  array.clear();
  if (array.capacity() < n) array.reserve(n + n / kFoldHeadroomDivisor);
}

// Fills one node's slot (postorder and extra_begin already set), its
// Eytzinger run at `run`, and its filter line from `set`, a sorted
// antichain.
void FillNode(const std::vector<Interval>& set, int shift,
              LabelArena::NodeSlot& slot, ArenaInterval* run,
              uint64_t* words) {
  if (set.empty()) return;
  // Sorted antichain: both endpoint sequences ascend and every lo <= hi,
  // so the first lo and the last hi bound every endpoint of the set.
  CheckArenaLabel(set.front().lo);
  CheckArenaLabel(set.back().hi);
  slot.first = NarrowChecked(set[0]);
  slot.extra_count = static_cast<uint32_t>(set.size() - 1);
  if (slot.extra_count == 0) return;
  uint32_t pos = 0;
  FillEytzinger(set.data() + 1, slot.extra_count, run, 1, pos);
  // Summary slot: the extras' min lo / max hi, for the O(1) range reject.
  run[0] = NarrowChecked(Interval{set[1].lo, set.back().hi});
  MarkFilter(run + 1, run + slot.extra_count + 1, shift, words);
}

}  // namespace

int64_t LabelArena::DirLowerBound(Label x) const {
  return std::lower_bound(dir_labels.begin(), dir_labels.end(), x) -
         dir_labels.begin();
}

int64_t LabelArena::DirUpperBound(Label x) const {
  return std::upper_bound(dir_labels.begin(), dir_labels.end(), x) -
         dir_labels.begin();
}

int64_t LabelArena::ByteSize() const {
  return static_cast<int64_t>(slots.size() * sizeof(NodeSlot) +
                              extras.size() * sizeof(ArenaInterval) +
                              filters.size() * sizeof(uint64_t) +
                              dir_labels.size() * sizeof(ArenaLabel) +
                              dir_nodes.size() * sizeof(NodeId));
}

int64_t LabelArena::CapacityBytes() const {
  return static_cast<int64_t>(slots.capacity() * sizeof(NodeSlot) +
                              extras.capacity() * sizeof(ArenaInterval) +
                              filters.capacity() * sizeof(uint64_t) +
                              dir_labels.capacity() * sizeof(ArenaLabel) +
                              dir_nodes.capacity() * sizeof(NodeId));
}

LabelArena BuildLabelArena(const NodeLabels& labels) {
  const int64_t n = static_cast<int64_t>(labels.postorder.size());
  TREL_CHECK_EQ(labels.postorder.size(), labels.intervals.size());
  LabelArena arena;
  if (n == 0) return arena;

  // Filter bucket scale: the largest assigned postorder number must land
  // in the last bucket or below.  The range check also keeps every
  // number inside the 32-bit slot and directory fields.
  Label max_label = 0;
  for (int64_t v = 0; v < n; ++v) {
    CheckArenaLabel(labels.postorder[v]);
    max_label = std::max(max_label, labels.postorder[v]);
  }
  arena.filter_shift = FilterShiftFor(max_label);

  // Pass 1: per-node extras run sizes, prefix-summed into begin offsets.
  // A k-interval node (k > 1) gets a run of k slots: summary at index 0,
  // the k-1 extras as the Eytzinger tree at 1..k-1.  The counts pass
  // touches every IntervalSet header once — the only pointer-chasing the
  // arena ever does again.
  std::vector<uint32_t> extra_begin(static_cast<size_t>(n) + 1, 0);
  for (int64_t v = 0; v < n; ++v) {
    const int64_t k = labels.intervals[v].size();
    const uint64_t sum =
        static_cast<uint64_t>(extra_begin[v]) + (k > 1 ? k : 0);
    TREL_CHECK_LE(sum, std::numeric_limits<uint32_t>::max())
        << "arena extras exceed the 32-bit slot offset";
    extra_begin[v + 1] = static_cast<uint32_t>(sum);
  }

  // Pass 2: fill slots, the per-node Eytzinger runs, and the coverage
  // filters.
  arena.slots.resize(n);
  arena.extras.resize(extra_begin[n], ArenaInterval{1, 0});
  arena.filters.assign(static_cast<size_t>(n) * LabelArena::kFilterWords, 0);
  const int shift = arena.filter_shift;
  for (int64_t v = 0; v < n; ++v) {
    LabelArena::NodeSlot& slot = arena.slots[v];
    slot.postorder = static_cast<ArenaLabel>(labels.postorder[v]);
    slot.extra_begin = extra_begin[v];
    FillNode(labels.intervals[v].intervals(), shift, slot,
             arena.extras.data() + extra_begin[v],
             arena.filters.data() +
                 static_cast<size_t>(v) * LabelArena::kFilterWords);
  }

  // Pass 3: the postorder directory, sorted by number, split into
  // structure-of-arrays form.  The scale loop range-checked every number.
  std::vector<std::pair<Label, NodeId>> directory(n);
  for (int64_t v = 0; v < n; ++v) {
    directory[v] = {labels.postorder[v], static_cast<NodeId>(v)};
  }
  std::sort(directory.begin(), directory.end());
  arena.dir_labels.resize(n);
  arena.dir_nodes.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    arena.dir_labels[i] = static_cast<ArenaLabel>(directory[i].first);
    arena.dir_nodes[i] = directory[i].second;
  }
  return arena;
}

LabelArena BuildOverlayArena(const std::vector<OverlayMember>& members,
                             const LabelArena* from) {
  const int64_t n = static_cast<int64_t>(members.size());
  LabelArena arena;
  // The filters must span every endpoint stored here, not just the
  // members' postorders: a member's intervals reach numbers owned by
  // nodes outside the overlay.  Members are sorted by postorder, so the
  // last one holds the largest.
  Label max_label = n > 0 ? members.back().postorder : 0;
  uint64_t total = 0;
  for (const OverlayMember& m : members) {
    if (m.intervals != nullptr) {
      const std::vector<Interval>& set = m.intervals->intervals();
      if (!set.empty()) max_label = std::max(max_label, set.back().hi);
      total += set.size() > 1 ? set.size() : 0;
    } else {
      const LabelArena::NodeSlot& s = from->slots[m.from_slot];
      max_label = std::max<Label>(max_label, s.first.hi);
      if (s.extra_count > 0) {
        max_label =
            std::max<Label>(max_label, from->extras[s.extra_begin].hi);
        total += s.extra_count + 1;
      }
    }
  }
  TREL_CHECK_LE(total, std::numeric_limits<uint32_t>::max())
      << "arena extras exceed the 32-bit slot offset";
  arena.filter_shift = FilterShiftFor(max_label);

  arena.slots.resize(n);
  // Appended run by run: carried runs are most of the bytes, and copying
  // them into a pre-filled array would write every byte twice.
  arena.extras.reserve(total);
  arena.filters.assign(static_cast<size_t>(n) * LabelArena::kFilterWords, 0);
  arena.dir_labels.resize(n);
  arena.dir_nodes.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const OverlayMember& m = members[i];
    TREL_CHECK(i == 0 || members[i - 1].postorder < m.postorder)
        << "overlay members must be sorted by postorder number";
    const ArenaLabel postorder = NarrowLabel(m.postorder);
    arena.dir_labels[i] = postorder;
    arena.dir_nodes[i] = m.node;
    LabelArena::NodeSlot& slot = arena.slots[i];
    slot.postorder = postorder;
    slot.extra_begin = static_cast<uint32_t>(arena.extras.size());
    uint64_t* words = arena.filters.data() +
                      static_cast<size_t>(i) * LabelArena::kFilterWords;
    if (m.intervals != nullptr) {
      const std::vector<Interval>& set = m.intervals->intervals();
      arena.extras.resize(arena.extras.size() +
                          (set.size() > 1 ? set.size() : 0));
      FillNode(set, arena.filter_shift, slot,
               arena.extras.data() + slot.extra_begin, words);
      continue;
    }
    // Runs are position-independent, so a carried label is copied as is;
    // its filter line too when the bucket scale did not move.
    const LabelArena::NodeSlot& s = from->slots[m.from_slot];
    slot.first = s.first;
    slot.extra_count = s.extra_count;
    if (s.extra_count == 0) continue;
    const ArenaInterval* src = from->extras.data() + s.extra_begin;
    arena.extras.insert(arena.extras.end(), src, src + s.extra_count + 1);
    if (from->filter_shift == arena.filter_shift) {
      const uint64_t* line =
          from->filters.data() +
          static_cast<size_t>(m.from_slot) * LabelArena::kFilterWords;
      std::copy(line, line + LabelArena::kFilterWords, words);
    } else {
      MarkFilter(src + 1, src + s.extra_count + 1, arena.filter_shift, words);
    }
  }
  return arena;
}

void FoldOverlayArena(const LabelArena& base, const LabelArena& overlay,
                      const std::vector<int32_t>& slot_of,
                      const std::vector<Label>& stale_labels,
                      LabelArena& into) {
  TREL_CHECK(&into != &base && &into != &overlay)
      << "a fold cannot write into an arena it reads";
  const int64_t n = static_cast<int64_t>(slot_of.size());
  const NodeId base_nodes = base.num_nodes();
  TREL_CHECK_GE(n, base_nodes) << "node ids are never recycled";
  LabelArena& arena = into;
  if (n == 0) {
    arena = LabelArena();
    return;
  }

  // The directory: the base's entries minus the numbers the overlay
  // superseded, merged with the overlay's.  All three lists ascend.
  ClearForFold(arena.dir_labels, n);
  ClearForFold(arena.dir_nodes, n);
  {
    auto stale = stale_labels.begin();
    const int64_t base_end = static_cast<int64_t>(base.dir_labels.size());
    const int64_t over_end = static_cast<int64_t>(overlay.dir_labels.size());
    int64_t b = 0;
    int64_t o = 0;
    while (b < base_end || o < over_end) {
      TREL_CHECK_LT(arena.dir_labels.size(), static_cast<size_t>(n))
          << "folded directory outgrows the node count";
      if (b < base_end) {
        const ArenaLabel label = base.dir_labels[b];
        while (stale != stale_labels.end() && *stale < label) ++stale;
        if (stale != stale_labels.end() && *stale == label) {
          ++b;
          continue;
        }
        if (o == over_end || label < overlay.dir_labels[o]) {
          arena.dir_labels.push_back(label);
          arena.dir_nodes.push_back(base.dir_nodes[b++]);
          continue;
        }
      }
      arena.dir_labels.push_back(overlay.dir_labels[o]);
      arena.dir_nodes.push_back(overlay.dir_nodes[o++]);
    }
    TREL_CHECK_EQ(arena.dir_labels.size(), static_cast<size_t>(n))
        << "folded directory must list every node once";
  }
  // BuildLabelArena's scale: the largest live postorder number, which the
  // merged directory ends with.
  arena.filter_shift = FilterShiftFor(arena.dir_labels.back());
  const int shift = arena.filter_shift;
  const bool copy_lines = base.filter_shift == shift;

  // The extras total moves only by the overlaid nodes' runs.
  uint64_t total = base.extras.size();
  for (NodeId s = 0; s < overlay.num_nodes(); ++s) {
    const NodeId v = overlay.dir_nodes[s];
    if (v < base_nodes) total -= RunLength(base.slots[v]);
    total += RunLength(overlay.slots[s]);
  }
  TREL_CHECK_LE(total, std::numeric_limits<uint32_t>::max())
      << "arena extras exceed the 32-bit slot offset";

  // Every array is appended within its capacity, so no byte is written
  // twice and a recycled arena's pages are written in place.
  ClearForFold(arena.slots, n);
  ClearForFold(arena.extras, total);
  ClearForFold(arena.filters,
               static_cast<size_t>(n) * LabelArena::kFilterWords);
  for (int64_t v = 0; v < n;) {
    if (slot_of[v] >= 0) {
      LabelArena::NodeSlot slot = overlay.slots[slot_of[v]];
      const auto run = overlay.extras.begin() + slot.extra_begin;
      slot.extra_begin = static_cast<uint32_t>(arena.extras.size());
      arena.extras.insert(arena.extras.end(), run, run + RunLength(slot));
      arena.slots.push_back(slot);
      AppendMarkedLine(slot, arena.extras, shift, arena.filters);
      ++v;
      continue;
    }
    // A run [v, end) of base nodes left alone: their runs sit contiguous
    // in base.extras, so each array takes one copy.
    int64_t end = v + 1;
    while (end < n && slot_of[end] < 0) ++end;
    TREL_CHECK_LE(end, base_nodes)
        << "every node past the base must be overlaid";
    const LabelArena::NodeSlot& last = base.slots[end - 1];
    const uint32_t src = base.slots[v].extra_begin;
    const uint32_t src_end = last.extra_begin + RunLength(last);
    // Unsigned wrap-around makes this a signed move in the 32-bit space.
    const uint32_t rebase = static_cast<uint32_t>(arena.extras.size()) - src;
    arena.extras.insert(arena.extras.end(), base.extras.begin() + src,
                        base.extras.begin() + src_end);
    const size_t first = arena.slots.size();
    arena.slots.insert(arena.slots.end(), base.slots.begin() + v,
                       base.slots.begin() + end);
    if (rebase != 0) {
      for (size_t i = first; i < arena.slots.size(); ++i) {
        arena.slots[i].extra_begin += rebase;
      }
    }
    if (copy_lines) {
      arena.filters.insert(
          arena.filters.end(),
          base.filters.begin() + v * LabelArena::kFilterWords,
          base.filters.begin() + end * LabelArena::kFilterWords);
    } else {
      for (size_t i = first; i < arena.slots.size(); ++i) {
        AppendMarkedLine(arena.slots[i], arena.extras, shift, arena.filters);
      }
    }
    v = end;
  }
  TREL_CHECK_EQ(arena.extras.size(), total);
}

}  // namespace trel

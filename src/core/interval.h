#ifndef TREL_CORE_INTERVAL_H_
#define TREL_CORE_INTERVAL_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/check.h"

namespace trel {

// Postorder numbers are 64-bit everywhere outside the flat LabelArena
// (label_arena.h), so that gap-based incremental numbering (Section 4 of
// the paper) can compute with them without overflow.  The arena, the
// closure's only query-time label store, keeps each label in 32 bits, so
// every label that reaches it must lie in [0, kArenaLabelLimit).  The
// label creators keep them there: BuildLabels and BuildChainLabeling
// reject numberings that would pass it, DynamicClosure compacts its
// numbering before drifting past it, and DynamicClosure::Load rejects
// images that hold larger labels.
using Label = int64_t;
inline constexpr Label kArenaLabelLimit = Label{1} << 32;

// Closed numeric interval [lo, hi] of postorder numbers.
struct Interval {
  Label lo;
  Label hi;

  bool Contains(Label x) const { return lo <= x && x <= hi; }

  // True iff this interval subsumes `other` (paper Section 3.2: the
  // subsumed interval can be discarded).
  bool Subsumes(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }

  bool operator==(const Interval& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

std::ostream& operator<<(std::ostream& os, const Interval& interval);

// Set of intervals attached to one node, maintained as a subsumption-free
// antichain sorted by lo (equivalently by hi: in an antichain both
// coordinates increase together).  Insertion discards subsumed intervals
// in both directions, implementing the paper's compression rule.
class IntervalSet {
 public:
  IntervalSet() = default;

  // Adopts `intervals` wholesale in O(1) moves plus one validation pass.
  // The input must already be what Insert would have produced: sorted
  // ascending by lo with no subsumption (an antichain).  Bulk emitters
  // (chain_propagator.cc) use this to skip per-interval Insert costs.
  static IntervalSet FromSortedAntichain(std::vector<Interval> intervals);

  // Inserts `interval` unless an existing member subsumes it.  Removes any
  // members the new interval subsumes.  Returns true iff the set changed.
  bool Insert(Interval interval);

  // True iff some member contains `x`.  O(log size).
  bool Contains(Label x) const;

  // True iff some member subsumes `interval`.
  bool CoveredBy(const Interval& interval) const;
  bool SubsumesInterval(const Interval& interval) const;

  // Coalesces members that touch numerically (next.lo <= cur.hi + 1),
  // the Section 3.2 "adjacent interval merging" improvement.  After
  // merging the set is still sorted and subsumption-free.  Returns the
  // number of merges performed.
  int MergeAdjacent();

  int64_t size() const { return static_cast<int64_t>(intervals_.size()); }
  bool empty() const { return intervals_.empty(); }
  void clear() { intervals_.clear(); }

  // Members in ascending order.
  const std::vector<Interval>& intervals() const { return intervals_; }

  bool operator==(const IntervalSet& other) const {
    return intervals_ == other.intervals_;
  }

 private:
  std::vector<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace trel

#endif  // TREL_CORE_INTERVAL_H_

#ifndef TREL_OBS_SPAN_LOG_H_
#define TREL_OBS_SPAN_LOG_H_

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/histogram.h"

namespace trel {

// The named phases of one QueryService publish, in execution order.
// Full publishes spend their time in export + arena_build (+ stats),
// whether they rebuild the arena or fold the delta into the previous
// base; delta publishes in drain (ExportDelta) + export (WithDelta) and
// leave the other phases at 0.  rebuild covers in-publish index rebuilds
// (chain-fast RebuildWithChains or the cadence-driven Reoptimize) and is
// 0 when the publish reused the standing labeling.  See DESIGN.md §5.
enum class PublishPhase : int {
  kDrain = 0,       // Dirty-set drain: ExportDelta (delta) / MarkClean (full).
  kExport = 1,      // Label export minus the arena build; WithDelta for
                    // delta; ExportDelta + WithDelta + cover copy for a fold.
  kArenaBuild = 2,  // Flat LabelArena build or fold (full publishes only).
  kStats = 3,       // Optional ClosureStats pass (full publishes only).
  kSwap = 4,        // The atomic snapshot pointer store.
  kRebuild = 5,     // In-publish relabeling (chain-fast or Alg1 reoptimize).
};
constexpr int kNumPublishPhases = 6;

// "drain" / "export" / "arena_build" / "stats" / "swap" / "rebuild".
const char* PublishPhaseName(PublishPhase phase);

// How a published snapshot was produced.  The enum value doubles as the
// aggregate index, so delta stays 0 for continuity with the old
// full-vs-delta split.
enum class PublishStrategy : uint8_t {
  kDelta = 0,        // Overlay: ExportDelta + WithDelta on the base arena.
  kChainFull = 1,    // Full export of a chain-fast (path-cover) labeling.
  kOptimalFull = 2,  // Full export of an Alg1 antichain-optimal labeling.
};
constexpr int kNumPublishStrategies = 3;

// "delta" / "chain_full" / "optimal_full".
const char* PublishStrategyName(PublishStrategy strategy);

// One publish, decomposed into phases.  total_micros is the end-to-end
// publish time; the phases need not sum exactly to it (loop overhead and
// snapshot allocation sit between them).
struct PublishSpan {
  uint64_t epoch = 0;
  PublishStrategy strategy = PublishStrategy::kOptimalFull;
  int64_t total_micros = 0;
  std::array<int64_t, kNumPublishPhases> phase_micros{};
};

// Bounded log of publish spans plus per-phase aggregates split by
// strategy.  Mutex-guarded: publishes are rare (milliseconds apart at
// the fastest) and already serialized by the service's writer mutex, so
// a lock here costs nothing measurable.
class SpanLog {
 public:
  // Width of the power-of-two phase-latency histograms Read() folds to:
  // bucket i counts phases that took [2^i, 2^(i+1)) microseconds.
  static constexpr int kBuckets = 22;

  // Outer index = PublishStrategy value (0 delta, 1 chain_full,
  // 2 optimal_full), inner index = PublishPhase.
  template <typename T>
  using PerPhase =
      std::array<std::array<T, kNumPublishPhases>, kNumPublishStrategies>;

  struct Aggregate {
    PerPhase<int64_t> phase_micros_total{};
    PerPhase<std::array<int64_t, kBuckets>> phase_histogram{};
  };

  explicit SpanLog(size_t capacity = 128);

  void Record(const PublishSpan& span);

  // The most recent spans, oldest first (at most `capacity`).
  std::vector<PublishSpan> Recent() const;

  // The most recent span; empty before the first publish.
  std::optional<PublishSpan> Last() const;

  Aggregate Read() const;

 private:
  mutable std::mutex mutex_;
  size_t capacity_;
  std::deque<PublishSpan> recent_;            // Guarded by mutex_.
  PerPhase<int64_t> phase_micros_total_{};    // Guarded by mutex_.
  PerPhase<LogHistogram> phase_histograms_;  // Guarded by mutex_.
};

}  // namespace trel

#endif  // TREL_OBS_SPAN_LOG_H_

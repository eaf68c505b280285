#ifndef TREL_OBS_ROLLUP_H_
#define TREL_OBS_ROLLUP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace trel {

// Windowed latency percentiles, live and in-process.
//
// Each named series owns a small ring of per-minute LogHistogram cells
// (nanosecond values, buckets at most 6.25% wide).  Record() is
// wait-free on the hot path: one relaxed atomic add on the cell the
// current minute hashes to; a cell is claimed for a new minute with a
// single CAS, so clearing it costs O(buckets) once per series-minute,
// never per record.  Reads (Window) fold the cells whose minute stamps
// fall inside a sliding window.  Quantiles are reported as the upper
// edge of the deciding bucket (LogHistogram::Snapshot::Quantiles), so
// p50 <= p99 <= p999 always holds.
//
// Concurrency: every field is an atomic; readers and writers never
// block.  Records racing a minute-boundary rotation can land in a cell
// the rotating writer is clearing and be dropped — a bounded, benign
// smear confined to the boundary instant (the tracer's seqlock makes
// the same trade).
//
// The clock is injectable for tests: pass a monotonic-nanos function to
// the constructor and minute math becomes fully deterministic.
class LatencyRollup {
 public:
  static constexpr int kRingMinutes = 8;
  static constexpr int64_t kNanosPerMinute = 60LL * 1000 * 1000 * 1000;

  using NowFn = int64_t (*)();

  // Monotonic nanoseconds (steady_clock); the default clock.
  static int64_t MonotonicNanos();

  // Sliding-window lengths the engine exposes (minutes, ascending).
  static const std::vector<int>& WindowMinutes();

  // One histogram ring per named series; names label exposition output.
  explicit LatencyRollup(std::vector<std::string> series_names,
                         NowFn now_fn = nullptr);

  LatencyRollup(const LatencyRollup&) = delete;
  LatencyRollup& operator=(const LatencyRollup&) = delete;

  int num_series() const { return static_cast<int>(names_.size()); }
  const std::string& series_name(int series) const { return names_[series]; }

  // O(1) hot-path record of one latency observation.
  void Record(int series, int64_t nanos);

  struct WindowStats {
    int64_t count = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
  };

  // Folds the cells covering minutes (now - skip - minutes, now - skip].
  // skip_minutes > 0 yields a trailing window that excludes the most
  // recent minutes — the flight recorder's drift baseline.
  WindowStats Window(int series, int window_minutes,
                     int skip_minutes = 0) const;

 private:
  struct Cell {
    std::atomic<int64_t> minute{-1};  // -1 = never used.
    LogHistogram histogram;
  };

  std::vector<std::string> names_;
  NowFn now_fn_;
  std::vector<Cell> cells_;  // names_.size() x kRingMinutes, row-major.
};

}  // namespace trel

#endif  // TREL_OBS_ROLLUP_H_

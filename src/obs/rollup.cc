#include "obs/rollup.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace trel {

int64_t LatencyRollup::MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<int>& LatencyRollup::WindowMinutes() {
  static const std::vector<int> kWindows = {1, 5};
  return kWindows;
}

LatencyRollup::LatencyRollup(std::vector<std::string> series_names,
                             NowFn now_fn)
    : names_(std::move(series_names)),
      now_fn_(now_fn != nullptr ? now_fn : &MonotonicNanos),
      cells_(names_.size() * kRingMinutes) {}

void LatencyRollup::Record(int series, int64_t nanos) {
  if (series < 0 || series >= num_series()) return;
  const int64_t minute = now_fn_() / kNanosPerMinute;
  Cell& cell =
      cells_[static_cast<size_t>(series) * kRingMinutes + minute % kRingMinutes];
  int64_t stamped = cell.minute.load(std::memory_order_relaxed);
  // Claim the cell for the new minute; exactly one racing writer wins and
  // clears it.  Losers (stamped already advanced) fall through and record
  // into the fresh cell.
  if (stamped != minute &&
      cell.minute.compare_exchange_strong(stamped, minute,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    cell.histogram.Clear();
  }
  cell.histogram.Record(nanos);
}

LatencyRollup::WindowStats LatencyRollup::Window(int series,
                                                 int window_minutes,
                                                 int skip_minutes) const {
  WindowStats stats;
  if (series < 0 || series >= num_series() || window_minutes <= 0) {
    return stats;
  }
  const int64_t now_minute = now_fn_() / kNanosPerMinute;
  const int64_t newest = now_minute - skip_minutes;
  const int64_t oldest = newest - window_minutes + 1;
  const Cell* row = &cells_[static_cast<size_t>(series) * kRingMinutes];
  const auto in_window = [&](const Cell& cell) {
    const int64_t m = cell.minute.load(std::memory_order_relaxed);
    return m >= oldest && m <= newest;
  };
  // Most series are idle most minutes: skip the fold when nothing is in.
  if (std::none_of(row, row + kRingMinutes, in_window)) return stats;
  LogHistogram::Snapshot folded;
  for (int i = 0; i < kRingMinutes; ++i) {
    if (in_window(row[i])) row[i].histogram.AddTo(&folded);
  }
  stats.count = folded.Total();
  const auto [p50, p99, p999] = folded.Quantiles<3>({0.50, 0.99, 0.999});
  stats.p50_us = static_cast<double>(p50) / 1000.0;
  stats.p99_us = static_cast<double>(p99) / 1000.0;
  stats.p999_us = static_cast<double>(p999) / 1000.0;
  return stats;
}

}  // namespace trel

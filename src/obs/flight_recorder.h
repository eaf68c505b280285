#ifndef TREL_OBS_FLIGHT_RECORDER_H_
#define TREL_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/rollup.h"
#include "obs/slow_log.h"
#include "obs/span_log.h"
#include "obs/trace.h"

namespace trel {

// One frozen anomaly capture: everything a human needs to reconstruct
// what the service was doing when a detector fired.
struct FlightCapture {
  int64_t sequence = 0;
  std::string reason;  // Detector name (or "forced" reasons).
  std::string detail;  // Human-oriented trigger specifics.
  int64_t trigger_nanos = 0;  // Monotonic clock at trigger time.
  std::vector<TraceRecord> traces;
  std::vector<PublishSpan> spans;
  std::vector<SlowQueryEntry> slow;
  std::string metrics;  // The service's View::ToString() line.
  struct WindowRow {
    std::string series;
    int window_minutes = 0;
    LatencyRollup::WindowStats stats;
  };
  std::vector<WindowRow> windows;
};

// Anomaly flight recorder: cheap detectors over the windowed latency
// engine and a handful of cumulative counters that, on firing, freeze a
// full capture (recent traces, publish spans, slow queries, metrics
// line, window state) for /flightz.
//
// Detectors (DESIGN.md §5):
//   p99_drift       — a series' 1m p99 exceeds drift_factor x its
//                     trailing baseline (the preceding 4 minutes).
//   publish_stall   — the most recent publish took publish_stall_micros
//                     or longer.
//   rejected_burst  — batches_rejected grew by rejected_burst or more
//                     between checks.
//   boundary_spike  — boundary republishes grew by boundary_spike or
//                     more between checks.
//
// Check() is cold-path only: it runs at scrape time and after
// publishes, never per query.  All state is mutex-guarded.  The clock
// is injectable for deterministic tests.
class FlightRecorder {
 public:
  struct Options {
    double p99_drift_factor = 1.2;  // Buckets are <= 6.25% wide.
    // Windows with fewer samples than this never trigger drift (smoke
    // traffic and cold starts are noise); 1000 leaves ten beyond a p99.
    int64_t min_window_count = 1000;
    int64_t publish_stall_micros = 1000000;
    int64_t rejected_burst = 8;
    int64_t boundary_spike = 16;
    int max_captures = 4;
  };

  // Counter snapshot the owning service passes to each Check().
  struct Inputs {
    int64_t batches_rejected = 0;      // Cumulative.
    int64_t boundary_republishes = 0;  // Cumulative (0 when monolithic).
    int64_t last_publish_micros = 0;
    uint64_t last_publish_epoch = 0;
    bool has_publish = false;
  };

  // Fills the capture's traces/spans/slow/metrics from the owning
  // service; the recorder adds sequence, reason, clock, and windows.
  using CaptureBuilder = std::function<void(FlightCapture*)>;

  FlightRecorder();  // Default Options.
  explicit FlightRecorder(const Options& options,
                          LatencyRollup::NowFn now_fn = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Wires the window source and the capture payload source.  Call once
  // at service construction, before any Check().
  void Attach(const LatencyRollup* rollup, CaptureBuilder builder);

  // Runs every detector; freezes at most one capture per call.  Returns
  // true when a capture was taken.
  bool Check(const Inputs& inputs);

  // Unconditionally freezes a capture (test hook / TREL_FLIGHT_TEST_TRIGGER).
  bool ForceCapture(const std::string& reason);

  std::vector<FlightCapture> Captures() const;
  int64_t TotalTriggered() const;

  // The /flightz payload: {"total_triggered": N, "captures": [...]}.
  std::string ToJson() const;

 private:
  // Freezes a capture under mutex_ (caller holds it).
  void TriggerLocked(const std::string& reason, const std::string& detail);

  Options options_;
  LatencyRollup::NowFn now_fn_;

  mutable std::mutex mutex_;
  const LatencyRollup* rollup_ = nullptr;  // Guarded by mutex_.
  CaptureBuilder builder_;                 // Guarded by mutex_.
  std::deque<FlightCapture> captures_;     // Guarded by mutex_.
  int64_t total_triggered_ = 0;            // Guarded by mutex_.
  int64_t next_sequence_ = 0;              // Guarded by mutex_.
  // Detector state (guarded by mutex_).
  int64_t prev_rejected_ = -1;
  int64_t prev_republishes_ = -1;
  uint64_t last_stall_epoch_ = 0;
  bool has_stall_epoch_ = false;
  int64_t last_drift_minute_ = -1;  // Re-arm drift once per minute.
};

}  // namespace trel

#endif  // TREL_OBS_FLIGHT_RECORDER_H_

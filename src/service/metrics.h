#ifndef TREL_SERVICE_METRICS_H_
#define TREL_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "core/arena_kernels.h"
#include "obs/histogram.h"
#include "obs/span_log.h"

namespace trel {

// Thread-safe counters for the query service.  All writes are relaxed
// atomic increments — metrics never order anything, they only have to be
// race-free.  The per-query counters, reach_queries and
// successor_queries, live in the service's reader slots instead, off the
// shared lines here.
class ServiceMetrics {
 public:
  // Batch latency, folded from a LogHistogram at Read(): bucket i counts
  // batches that finished in [2^i, 2^(i+1)) microseconds (bucket 0
  // additionally catches < 1us, the last bucket everything slower).
  static constexpr int kLatencyBuckets = 22;
  // Delta size, folded likewise: bucket i counts delta publishes that
  // shipped [2^i, 2^(i+1)) changed node entries (bucket 0 additionally
  // catches empty deltas, the last bucket everything larger).
  static constexpr int kDeltaNodeBuckets = 24;

  // Plain-value copy of the counters, safe to read field by field.
  struct View {
    // Both summed by QueryService::Metrics() from its per-thread reader
    // slots (service/published_ptr.h), so the read path writes no shared
    // line.
    int64_t reach_queries = 0;
    int64_t successor_queries = 0;
    int64_t batches = 0;
    int64_t batch_micros_total = 0;
    // Batches refused by admission control (TryBatchReaches /
    // TryBatchSuccessors with ServiceOptions::max_inflight_batches set).
    int64_t batches_rejected = 0;
    // Publishes split by strategy; `publishes` is their sum and the
    // legacy full counters are the chain_full + optimal_full sums.
    int64_t publishes = 0;
    int64_t publishes_full = 0;
    int64_t publishes_delta = 0;
    int64_t publishes_chain_full = 0;
    int64_t publishes_optimal_full = 0;
    // The full publishes that folded the dirty nodes into the previous
    // base arena instead of rebuilding it (a subset of publishes_full).
    int64_t publishes_folded = 0;
    int64_t publish_micros_total = 0;
    int64_t publish_full_micros_total = 0;
    int64_t publish_delta_micros_total = 0;
    int64_t publish_chain_full_micros_total = 0;
    int64_t publish_optimal_full_micros_total = 0;
    // Changed-node entries shipped across all delta publishes.
    int64_t delta_nodes_total = 0;
    std::array<int64_t, kLatencyBuckets> batch_latency_histogram{};
    std::array<int64_t, kDeltaNodeBuckets> delta_nodes_histogram{};
    // Batch-kernel outcome counters (see BatchKernelStats): how many
    // batched lookups were decided by slots alone, killed by a one-bit
    // or whole-group coverage-filter test, or searched an extras run.
    int64_t batch_fast_path = 0;
    int64_t batch_filter_rejects = 0;
    int64_t batch_group_rejects = 0;
    int64_t batch_extras_searches = 0;
    // Filled in by QueryService::Metrics() from the live snapshot.
    uint64_t current_epoch = 0;
    // Batches executing right now (gauge; filled by QueryService).
    int64_t inflight_batches = 0;
    double snapshot_age_seconds = 0.0;
    int64_t snapshot_total_intervals = 0;
    int64_t snapshot_num_nodes = 0;
    int64_t snapshot_overlay_nodes = 0;
    // Bytes pinned by the snapshot's flat query arena (shared across
    // delta snapshots, so overlay epochs report their base's arena).
    int64_t snapshot_arena_bytes = 0;
    // Bytes the service holds for its next fold: the spare arena, a
    // retired folded base no snapshot uses, counted at capacity (gauge;
    // filled by QueryService, DESIGN.md §4c).
    int64_t spare_arena_bytes = 0;
    // Dispatched arena-kernel ISA tier (gauge): numeric SimdLevel plus
    // its name ("scalar"/"avx2").  Process-wide, resolved once at
    // startup — see core/simd_dispatch.h.
    int simd_level = 0;
    std::string simd_level_name = "scalar";
    // Strategy of the most recent publish ("none" before the first).
    std::string last_publish_strategy = "none";
    // Snapshot interval totals observed at the most recent full publish
    // of each kind, and their ratio (chain / optimal) — the interval
    // blowup the chain-fast tier trades for build speed.  0 until both
    // kinds have published at least once.
    int64_t chain_full_intervals_last = 0;
    int64_t optimal_full_intervals_last = 0;
    double chain_interval_blowup = 0.0;

    std::string ToString() const;
  };

  // One batch that ran for `micros` wall microseconds.
  void RecordBatch(int64_t micros);
  // One batch refused by admission control (never executed).
  void RecordBatchRejected() {
    batches_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t batches_rejected() const {
    return batches_rejected_.load(std::memory_order_relaxed);
  }
  // One publish that re-exported the entire labeling.  `strategy` says
  // which full tier built it (kDelta is invalid here);
  // `total_intervals` is the published snapshot's interval count, kept
  // per tier so the chain-vs-optimal blowup ratio is observable.
  // `folded` says whether the arena was folded from the previous base
  // rather than rebuilt from every label.
  void RecordPublishFull(PublishStrategy strategy, int64_t micros,
                         int64_t total_intervals, bool folded);
  // One publish that shipped `delta_nodes` changed entries as an overlay.
  void RecordPublishDelta(int64_t micros, int64_t delta_nodes);
  // Folds one batch invocation's kernel tallies in (four relaxed adds —
  // the kernel itself counts in plain locals).
  void RecordBatchKernel(const BatchKernelStats& stats);

  View Read() const;

 private:
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batch_micros_total_{0};
  std::atomic<int64_t> batches_rejected_{0};
  std::atomic<int64_t> publishes_chain_full_{0};
  std::atomic<int64_t> publishes_optimal_full_{0};
  std::atomic<int64_t> publishes_delta_{0};
  std::atomic<int64_t> publishes_folded_{0};
  std::atomic<int64_t> publish_chain_full_micros_total_{0};
  std::atomic<int64_t> publish_optimal_full_micros_total_{0};
  std::atomic<int64_t> publish_delta_micros_total_{0};
  std::atomic<int64_t> delta_nodes_total_{0};
  // PublishStrategy value of the latest publish; -1 before the first.
  std::atomic<int> last_publish_strategy_{-1};
  std::atomic<int64_t> chain_full_intervals_last_{0};
  std::atomic<int64_t> optimal_full_intervals_last_{0};
  LogHistogram batch_latency_;
  LogHistogram delta_nodes_;
  std::atomic<int64_t> batch_fast_path_{0};
  std::atomic<int64_t> batch_filter_rejects_{0};
  std::atomic<int64_t> batch_group_rejects_{0};
  std::atomic<int64_t> batch_extras_searches_{0};
};

}  // namespace trel

#endif  // TREL_SERVICE_METRICS_H_

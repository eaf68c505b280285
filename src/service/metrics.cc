#include "service/metrics.h"

#include <span>
#include <sstream>

namespace trel {
namespace {

// "<2^(i+1):count" for every non-empty power-of-two bucket i.
void AppendPowerOfTwoBuckets(std::ostringstream& out,
                             std::span<const int64_t> buckets) {
  const char* separator = "";
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    out << separator << "<" << (int64_t{1} << (i + 1)) << ":" << buckets[i];
    separator = " ";
  }
}

}  // namespace

void ServiceMetrics::RecordBatch(int64_t micros) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_micros_total_.fetch_add(micros, std::memory_order_relaxed);
  batch_latency_.Record(micros);
}

void ServiceMetrics::RecordPublishFull(PublishStrategy strategy,
                                       int64_t micros,
                                       int64_t total_intervals,
                                       bool folded) {
  if (folded) publishes_folded_.fetch_add(1, std::memory_order_relaxed);
  if (strategy == PublishStrategy::kChainFull) {
    publishes_chain_full_.fetch_add(1, std::memory_order_relaxed);
    publish_chain_full_micros_total_.fetch_add(micros,
                                               std::memory_order_relaxed);
    chain_full_intervals_last_.store(total_intervals,
                                     std::memory_order_relaxed);
  } else {
    publishes_optimal_full_.fetch_add(1, std::memory_order_relaxed);
    publish_optimal_full_micros_total_.fetch_add(micros,
                                                 std::memory_order_relaxed);
    optimal_full_intervals_last_.store(total_intervals,
                                       std::memory_order_relaxed);
  }
  last_publish_strategy_.store(static_cast<int>(strategy),
                               std::memory_order_relaxed);
}

void ServiceMetrics::RecordPublishDelta(int64_t micros, int64_t delta_nodes) {
  publishes_delta_.fetch_add(1, std::memory_order_relaxed);
  publish_delta_micros_total_.fetch_add(micros, std::memory_order_relaxed);
  delta_nodes_total_.fetch_add(delta_nodes, std::memory_order_relaxed);
  delta_nodes_.Record(delta_nodes);
  last_publish_strategy_.store(static_cast<int>(PublishStrategy::kDelta),
                               std::memory_order_relaxed);
}

void ServiceMetrics::RecordBatchKernel(const BatchKernelStats& stats) {
  batch_fast_path_.fetch_add(stats.fast_path, std::memory_order_relaxed);
  batch_filter_rejects_.fetch_add(stats.filter_rejects,
                                  std::memory_order_relaxed);
  batch_group_rejects_.fetch_add(stats.group_rejects,
                                 std::memory_order_relaxed);
  batch_extras_searches_.fetch_add(stats.extras_searches,
                                   std::memory_order_relaxed);
}

ServiceMetrics::View ServiceMetrics::Read() const {
  View view;
  view.batches = batches_.load(std::memory_order_relaxed);
  view.batch_micros_total =
      batch_micros_total_.load(std::memory_order_relaxed);
  view.batches_rejected = batches_rejected();
  view.publishes_chain_full =
      publishes_chain_full_.load(std::memory_order_relaxed);
  view.publishes_optimal_full =
      publishes_optimal_full_.load(std::memory_order_relaxed);
  view.publishes_full = view.publishes_chain_full + view.publishes_optimal_full;
  view.publishes_delta = publishes_delta_.load(std::memory_order_relaxed);
  view.publishes = view.publishes_full + view.publishes_delta;
  view.publishes_folded = publishes_folded_.load(std::memory_order_relaxed);
  view.publish_chain_full_micros_total =
      publish_chain_full_micros_total_.load(std::memory_order_relaxed);
  view.publish_optimal_full_micros_total =
      publish_optimal_full_micros_total_.load(std::memory_order_relaxed);
  view.publish_full_micros_total = view.publish_chain_full_micros_total +
                                   view.publish_optimal_full_micros_total;
  view.publish_delta_micros_total =
      publish_delta_micros_total_.load(std::memory_order_relaxed);
  view.publish_micros_total =
      view.publish_full_micros_total + view.publish_delta_micros_total;
  view.delta_nodes_total = delta_nodes_total_.load(std::memory_order_relaxed);
  const int last = last_publish_strategy_.load(std::memory_order_relaxed);
  view.last_publish_strategy =
      last < 0 ? "none"
               : PublishStrategyName(static_cast<PublishStrategy>(last));
  view.chain_full_intervals_last =
      chain_full_intervals_last_.load(std::memory_order_relaxed);
  view.optimal_full_intervals_last =
      optimal_full_intervals_last_.load(std::memory_order_relaxed);
  view.chain_interval_blowup =
      (view.chain_full_intervals_last > 0 &&
       view.optimal_full_intervals_last > 0)
          ? static_cast<double>(view.chain_full_intervals_last) /
                static_cast<double>(view.optimal_full_intervals_last)
          : 0.0;
  view.batch_fast_path = batch_fast_path_.load(std::memory_order_relaxed);
  view.batch_filter_rejects =
      batch_filter_rejects_.load(std::memory_order_relaxed);
  view.batch_group_rejects =
      batch_group_rejects_.load(std::memory_order_relaxed);
  view.batch_extras_searches =
      batch_extras_searches_.load(std::memory_order_relaxed);
  batch_latency_.Read().FoldPowerOfTwo(view.batch_latency_histogram);
  delta_nodes_.Read().FoldPowerOfTwo(view.delta_nodes_histogram);
  return view;
}

std::string ServiceMetrics::View::ToString() const {
  std::ostringstream out;
  out << "epoch=" << current_epoch << " age_s=" << snapshot_age_seconds
      << " nodes=" << snapshot_num_nodes
      << " intervals=" << snapshot_total_intervals
      << " overlay_nodes=" << snapshot_overlay_nodes
      << " arena_bytes=" << snapshot_arena_bytes
      << " simd=" << simd_level_name
      << " reach_queries=" << reach_queries
      << " successor_queries=" << successor_queries
      << " batches=" << batches << " batch_us=" << batch_micros_total
      << " batches_rejected=" << batches_rejected
      << " batch_kernel=[fast=" << batch_fast_path
      << " filter_rej=" << batch_filter_rejects
      << " group_rej=" << batch_group_rejects
      << " extras=" << batch_extras_searches << "]"
      << " publishes=" << publishes << " (full=" << publishes_full
      << " delta=" << publishes_delta << ")"
      << " publish_us=" << publish_micros_total << " (full="
      << publish_full_micros_total << " delta=" << publish_delta_micros_total
      << ") delta_nodes=" << delta_nodes_total;
  out << " latency_hist_us=[";
  AppendPowerOfTwoBuckets(out, batch_latency_histogram);
  out << "] delta_nodes_hist=[";
  AppendPowerOfTwoBuckets(out, delta_nodes_histogram);
  out << "]";
  // Publish-strategy split, appended past the older fields:
  // tools/obs_check.py matches its fixed fields leftmost, so new names
  // must never precede old ones.  The legacy full counters above stay as
  // the chain_full + optimal_full sums.
  out << " publish_strategy=" << last_publish_strategy
      << " publishes_chain_full=" << publishes_chain_full
      << " publishes_optimal_full=" << publishes_optimal_full
      << " publish_us_chain_full=" << publish_chain_full_micros_total
      << " publish_us_optimal_full=" << publish_optimal_full_micros_total
      << " chain_intervals_last=" << chain_full_intervals_last
      << " optimal_intervals_last=" << optimal_full_intervals_last
      << " chain_blowup=" << chain_interval_blowup;
  // How many of the full publishes folded, and the spare their next fold
  // writes into, past the strategy block for the same leftmost-match
  // reason.
  out << " publishes_folded=" << publishes_folded
      << " spare_arena_bytes=" << spare_arena_bytes;
  return out.str();
}

}  // namespace trel

#include "obs/span_log.h"

namespace trel {

const char* PublishPhaseName(PublishPhase phase) {
  switch (phase) {
    case PublishPhase::kDrain:
      return "drain";
    case PublishPhase::kExport:
      return "export";
    case PublishPhase::kArenaBuild:
      return "arena_build";
    case PublishPhase::kStats:
      return "stats";
    case PublishPhase::kSwap:
      return "swap";
    case PublishPhase::kRebuild:
      return "rebuild";
  }
  return "unknown";
}

const char* PublishStrategyName(PublishStrategy strategy) {
  switch (strategy) {
    case PublishStrategy::kDelta:
      return "delta";
    case PublishStrategy::kChainFull:
      return "chain_full";
    case PublishStrategy::kOptimalFull:
      return "optimal_full";
  }
  return "unknown";
}

SpanLog::SpanLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void SpanLog::Record(const PublishSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int kind = static_cast<int>(span.strategy);
  for (int p = 0; p < kNumPublishPhases; ++p) {
    phase_micros_total_[kind][p] += span.phase_micros[p];
    phase_histograms_[kind][p].Record(span.phase_micros[p]);
  }
  recent_.push_back(span);
  if (recent_.size() > capacity_) recent_.pop_front();
}

std::vector<PublishSpan> SpanLog::Recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<PublishSpan>(recent_.begin(), recent_.end());
}

std::optional<PublishSpan> SpanLog::Last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recent_.empty()) return std::nullopt;
  return recent_.back();
}

SpanLog::Aggregate SpanLog::Read() const {
  Aggregate aggregate;
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate.phase_micros_total = phase_micros_total_;
  for (int kind = 0; kind < kNumPublishStrategies; ++kind) {
    for (int p = 0; p < kNumPublishPhases; ++p) {
      phase_histograms_[kind][p].Read().FoldPowerOfTwo(
          aggregate.phase_histogram[kind][p]);
    }
  }
  return aggregate;
}

}  // namespace trel

#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <thread>

namespace trel {

namespace {

// Word3 layout: bit 0 answer, bit 1 from_batch, bits 2..4 tag, bits
// 8..39 extras_probes.
constexpr uint64_t kAnswerBit = 1;
constexpr uint64_t kFromBatchBit = 2;
constexpr int kTagShift = 2;
constexpr uint64_t kTagMask = 0x7;
constexpr int kProbesShift = 8;

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

int ThreadRingIndex() {
  // Cache the shard per thread: one hash at first use, a TLS read after.
  thread_local const int index = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (QueryTracer::kNumRings - 1));
  return index;
}

}  // namespace

const char* QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kRoute:
      return "route";
    case QueryStage::kBoundaryBitset:
      return "boundary_bitset";
    case QueryStage::kHopCore:
      return "hop_core";
    case QueryStage::kShardQuery:
      return "shard_query";
    case QueryStage::kMerge:
      return "merge";
  }
  return "unknown";
}

QueryTracer::QueryTracer(uint32_t ring_capacity)
    : ring_capacity_(RoundUpPow2(ring_capacity == 0 ? 1 : ring_capacity)) {
  for (Ring& ring : rings_) {
    ring.slots = std::vector<Slot>(ring_capacity_);
  }
}

void QueryTracer::SetSamplePeriod(uint32_t period) {
  period_.store(period == 0 ? 0 : RoundUpPow2(period),
                std::memory_order_relaxed);
}

uint32_t QueryTracer::PeriodFromEnv() {
  const char* env = std::getenv("TREL_TRACE_SAMPLE");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || parsed > (1ul << 30)) return 0;
  return static_cast<uint32_t>(parsed);
}

void QueryTracer::Record(NodeId source, NodeId target, bool answer,
                         bool from_batch, ProbeTag tag, uint32_t extras_probes,
                         uint64_t epoch, uint64_t nanos,
                         const StageTrace* stages) {
  const uint64_t seq = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  tag_counts_[static_cast<int>(tag)].fetch_add(1, std::memory_order_relaxed);
  Ring& ring = rings_[ThreadRingIndex()];
  const uint64_t pos =
      ring.head.fetch_add(1, std::memory_order_relaxed) & (ring_capacity_ - 1);
  Slot& slot = ring.slots[pos];
  // Seqlock write: park the generation at 0 (readers skip), publish the
  // payload with release stores, then release the new generation.
  slot.gen.store(0, std::memory_order_relaxed);
  slot.word0.store((static_cast<uint64_t>(static_cast<uint32_t>(source)) << 32) |
                       static_cast<uint32_t>(target),
                   std::memory_order_release);
  slot.word1.store(epoch, std::memory_order_release);
  slot.word2.store(nanos, std::memory_order_release);
  slot.word3.store((answer ? kAnswerBit : 0) |
                       (from_batch ? kFromBatchBit : 0) |
                       ((static_cast<uint64_t>(tag) & kTagMask) << kTagShift) |
                       (static_cast<uint64_t>(extras_probes) << kProbesShift),
                   std::memory_order_release);
  if (stages != nullptr) {
    slot.word4.store(static_cast<uint64_t>(stages->stage_nanos[0]) |
                         (static_cast<uint64_t>(stages->stage_nanos[1]) << 32),
                     std::memory_order_release);
    slot.word5.store(static_cast<uint64_t>(stages->stage_nanos[2]) |
                         (static_cast<uint64_t>(stages->stage_nanos[3]) << 32),
                     std::memory_order_release);
    slot.word6.store(
        static_cast<uint64_t>(stages->stage_nanos[4]) |
            (static_cast<uint64_t>(static_cast<uint32_t>(stages->shard + 2))
             << 32),
        std::memory_order_release);
  } else {
    slot.word4.store(0, std::memory_order_release);
    slot.word5.store(0, std::memory_order_release);
    slot.word6.store(0, std::memory_order_release);
  }
  slot.gen.store(seq + 1, std::memory_order_release);
}

std::vector<TraceRecord> QueryTracer::Drain() const {
  std::vector<TraceRecord> records;
  for (const Ring& ring : rings_) {
    for (const Slot& slot : ring.slots) {
      const uint64_t g1 = slot.gen.load(std::memory_order_acquire);
      if (g1 == 0) continue;
      // Acquire loads: a newer write's word carries its parked 0 to gen.
      const uint64_t w0 = slot.word0.load(std::memory_order_acquire);
      const uint64_t w1 = slot.word1.load(std::memory_order_acquire);
      const uint64_t w2 = slot.word2.load(std::memory_order_acquire);
      const uint64_t w3 = slot.word3.load(std::memory_order_acquire);
      const uint64_t w4 = slot.word4.load(std::memory_order_acquire);
      const uint64_t w5 = slot.word5.load(std::memory_order_acquire);
      const uint64_t w6 = slot.word6.load(std::memory_order_acquire);
      if (slot.gen.load(std::memory_order_relaxed) != g1) continue;  // Torn.
      TraceRecord record;
      record.sequence = g1 - 1;
      record.source = static_cast<NodeId>(static_cast<uint32_t>(w0 >> 32));
      record.target = static_cast<NodeId>(static_cast<uint32_t>(w0));
      record.epoch = w1;
      record.nanos = w2;
      record.answer = (w3 & kAnswerBit) != 0;
      record.from_batch = (w3 & kFromBatchBit) != 0;
      record.tag = static_cast<ProbeTag>((w3 >> kTagShift) & kTagMask);
      record.extras_probes = static_cast<uint32_t>(w3 >> kProbesShift);
      const uint32_t shard_marker = static_cast<uint32_t>(w6 >> 32);
      if (shard_marker != 0) {
        record.has_stages = true;
        record.shard = static_cast<int32_t>(shard_marker) - 2;
        record.stage_nanos[0] = static_cast<uint32_t>(w4);
        record.stage_nanos[1] = static_cast<uint32_t>(w4 >> 32);
        record.stage_nanos[2] = static_cast<uint32_t>(w5);
        record.stage_nanos[3] = static_cast<uint32_t>(w5 >> 32);
        record.stage_nanos[4] = static_cast<uint32_t>(w6);
      }
      records.push_back(record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.sequence < b.sequence;
            });
  return records;
}

std::array<uint64_t, kNumProbeTags> QueryTracer::TagCounts() const {
  std::array<uint64_t, kNumProbeTags> counts{};
  for (int i = 0; i < kNumProbeTags; ++i) {
    counts[i] = tag_counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

}  // namespace trel

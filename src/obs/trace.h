#ifndef TREL_OBS_TRACE_H_
#define TREL_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/arena_kernels.h"
#include "graph/digraph.h"

namespace trel {

// The pipeline stages a sharded query can spend time in.  A monolithic
// query never sets these; the sharded front end attributes its sampled
// queries stage-by-stage (DESIGN.md §5).
enum class QueryStage : uint8_t {
  kRoute = 0,           // bounds check + per-endpoint shard routing
  kBoundaryBitset = 1,  // hub out-row x in-row intersection
  kShardQuery = 2,      // same-shard defer into the owning shard's index
  kMerge = 3,           // batch-only: folding shard results back
};
constexpr int kNumQueryStages = 4;

// "route" / "boundary_bitset" / "shard_query" / "merge".
const char* QueryStageName(QueryStage stage);

// Stage attribution carried alongside a sampled record.  stage_nanos are
// sub-intervals of the record's end-to-end nanos measured on the same
// clock, so their sum never exceeds it (obs_check.py asserts this on
// flight-recorder captures).
struct StageTrace {
  uint32_t stage_nanos[kNumQueryStages] = {};
  // Shard whose local index decided the query; -1 when the boundary
  // bitsets decided it without consulting a shard.
  int32_t shard = -1;
};

// One sampled query, reconstructed from a ring slot by Drain().
struct TraceRecord {
  // Global sampling order (monotone across threads); older records have
  // smaller sequences.
  uint64_t sequence = 0;
  NodeId source = 0;
  NodeId target = 0;
  bool answer = false;
  // True when the record came from a sampled batch rather than a single
  // Reaches call; its nanos are then the batch's per-query average.
  bool from_batch = false;
  ProbeTag tag = ProbeTag::kSlot;
  uint32_t extras_probes = 0;
  // Snapshot epoch the query was answered against.
  uint64_t epoch = 0;
  uint64_t nanos = 0;
  // Stage attribution (sharded records only; has_stages=false otherwise).
  bool has_stages = false;
  int32_t shard = -1;
  uint32_t stage_nanos[kNumQueryStages] = {};
};

// Lock-free sampled query tracer.  Sampled records land in a small set
// of fixed-capacity rings sharded by thread (so concurrent writers
// rarely contend on a head counter); Drain() merges the rings into a
// stable, sequence-ordered snapshot without stopping writers.
//
// Overhead contract: with sampling off (period 0, the default) the hot
// path pays exactly one relaxed load and one predictable branch
// (ShouldSample).  With sampling on, 1-in-period queries additionally
// pay two clock reads and one ring write; period is rounded up to a
// power of two so the sampling test is a single mask.
//
// Every slot access is an atomic: writers park a slot's generation tag
// at 0 while its payload words are in flight, and readers accept a slot
// only when the tag reads the same nonzero value before and after the
// payload loads — a seqlock whose races are benign and TSan-clean by
// construction (torn slots are simply skipped).
class QueryTracer {
 public:
  static constexpr int kNumRings = 16;
  static constexpr uint32_t kDefaultRingCapacity = 256;  // Records per ring.

  // `ring_capacity` (per ring) is rounded up to a power of two.
  explicit QueryTracer(uint32_t ring_capacity = kDefaultRingCapacity);

  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  // Sample 1-in-`period` queries; 0 disables (the default).  Rounded up
  // to the next power of two.  Safe to flip at runtime from any thread.
  void SetSamplePeriod(uint32_t period);
  uint32_t sample_period() const {
    return period_.load(std::memory_order_relaxed);
  }

  // Parses TREL_TRACE_SAMPLE (unset / empty / 0 / garbage = off) for
  // services and tools that want env-controlled sampling.
  static uint32_t PeriodFromEnv();

  // The hot-path gate.  One relaxed load + one branch when sampling is
  // off; a thread-local counter mask otherwise.
  bool ShouldSample() const {
    const uint32_t p = period_.load(std::memory_order_relaxed);
    if (p == 0) return false;
    thread_local uint32_t counter = 0;
    return (++counter & (p - 1)) == 0;
  }

  // Appends one record (cold path — call only after ShouldSample).
  void Record(NodeId source, NodeId target, bool answer, bool from_batch,
              ProbeTag tag, uint32_t extras_probes, uint64_t epoch,
              uint64_t nanos) {
    Record(source, target, answer, from_batch, tag, extras_probes, epoch,
           nanos, nullptr);
  }

  // Stage-attributed variant for the sharded front end: `stages` (may be
  // null) rides in three extra slot words under the same seqlock.
  void Record(NodeId source, NodeId target, bool answer, bool from_batch,
              ProbeTag tag, uint32_t extras_probes, uint64_t epoch,
              uint64_t nanos, const StageTrace* stages);

  // Merged, sequence-ordered (oldest first) snapshot of the ring
  // contents.  Non-destructive: rings keep the most recent records.
  // Slots a writer is mid-update on are skipped.
  std::vector<TraceRecord> Drain() const;

  // Records sampled since construction (monotone; rings only retain the
  // most recent ones).
  uint64_t TotalSampled() const {
    return next_sequence_.load(std::memory_order_relaxed);
  }

  // Per-ProbeTag sampled-record counts (monotone), indexed by
  // static_cast<int>(tag).
  std::array<uint64_t, kNumProbeTags> TagCounts() const;

 private:
  struct Slot {
    // 0 = empty or mid-write; otherwise record.sequence + 1.
    std::atomic<uint64_t> gen{0};
    std::atomic<uint64_t> word0{0};  // source (high 32) | target (low 32)
    std::atomic<uint64_t> word1{0};  // epoch
    std::atomic<uint64_t> word2{0};  // nanos
    std::atomic<uint64_t> word3{0};  // flags | tag | extras_probes
    std::atomic<uint64_t> word4{0};  // stage_nanos[1] (high 32) | [0] (low 32)
    std::atomic<uint64_t> word5{0};  // stage_nanos[3] (high 32) | [2] (low 32)
    // 0 = no stage info, else shard + 2 (so shard -1 encodes as 1).
    std::atomic<uint64_t> word6{0};
  };
  struct Ring {
    std::atomic<uint64_t> head{0};
    std::vector<Slot> slots;
  };

  uint32_t ring_capacity_;
  std::atomic<uint32_t> period_{0};
  std::atomic<uint64_t> next_sequence_{0};
  std::array<std::atomic<uint64_t>, kNumProbeTags> tag_counts_{};
  std::array<Ring, kNumRings> rings_;
};

}  // namespace trel

#endif  // TREL_OBS_TRACE_H_

#ifndef TREL_SERVICE_QUERY_SERVICE_H_
#define TREL_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/dynamic_closure.h"
#include "graph/digraph.h"
#include "obs/flight_recorder.h"
#include "obs/rollup.h"
#include "obs/slow_log.h"
#include "obs/span_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "service/published_ptr.h"
#include "service/snapshot.h"

namespace trel {

// The type of ServiceOptions::index_family, which is ignored: every
// snapshot answers from its interval arena.
enum class IndexFamilySetting : uint8_t {
  kAuto = 0,
  kForceIntervals = 1,
};

// Knobs for QueryService.
struct ServiceOptions {
  // Ignored: batches run on the calling thread and the service starts no
  // thread.  Kept only because the benchmark's services still assign it.
  int num_workers = 0;
  // Admission control for the batch APIs: at most this many batches may
  // execute at once through TryBatchReaches / TryBatchSuccessors; calls
  // past the limit are rejected with kResourceExhausted (and counted in
  // ServiceMetrics::batches_rejected) instead of queueing.  0 = unlimited
  // (the default).  The non-Try entry points are never rejected — they
  // are the embedded/trusted API — but they do occupy slots, so mixed
  // traffic is gated coherently.
  int64_t max_inflight_batches = 0;
  // Build options for the underlying index (gap numbering etc.).
  ClosureOptions closure = DynamicClosure::DefaultOptions();
  // Ignored: every snapshot answers from its interval arena.  Kept only
  // because the benchmark's services still assign it.
  IndexFamilySetting index_family = IndexFamilySetting::kAuto;

  // --- Observability (src/obs/, DESIGN.md §5) -----------------------------
  // The tracer, span log and slow-query log keep their types' default
  // capacities (QueryTracer::kDefaultRingCapacity per ring, SpanLog,
  // SlowQueryLog).
  //
  // Sample 1-in-N queries into the lock-free tracer; 0 = off (the
  // default — the hot path then pays one relaxed load + one branch).
  // Rounded up to a power of two.  A nonzero TREL_TRACE_SAMPLE env value
  // overrides this at construction.
  uint32_t trace_sample_period = 0;
  // Batches slower than this land in the always-on slow-query log;
  // 0 disables.  Batches are already timed for metrics, so this is one
  // extra compare per batch.
  int64_t slow_batch_micros = 100000;
  // SAMPLED single queries slower than this land in the slow-query log;
  // 0 disables.  Only sampled singles carry a timestamp (always-on
  // per-query clock reads would blow the <1% tracing-off budget), so
  // coverage follows the sampling period.
  int64_t slow_query_micros = 10000;
  // Anomaly flight-recorder thresholds (obs/flight_recorder.h).  The
  // detectors run at scrape time and after publishes, never per query.
  FlightRecorder::Options flight;
};

// Thread-safe, snapshot-based query front-end over the compressed
// transitive closure — the paper's read path ("a lookup instead of a
// traversal") made concurrently shareable.
//
// Concurrency contract:
//   * SINGLE WRITER.  At most one thread at a time may call the writer
//     API (Load / AddLeafUnder / AddArc / RemoveArc / Apply / Publish).
//     A writer mutex serializes accidental overlap, but the intended
//     deployment is one dedicated maintenance thread, as in the
//     query-serving / index-maintenance split of modern reachability
//     oracles.
//   * ANY NUMBER OF READERS, any thread, no locks.  Readers resolve
//     queries against the most recently *published* snapshot, which a
//     single call pins in the calling thread's own reader slot
//     (service/published_ptr.h) — no shared cache line is written on the
//     read path.  Updates are invisible until the writer calls Publish(),
//     which is what makes every snapshot internally consistent (a
//     half-propagated interval set can never be observed).
//   * Snapshots are immutable and reference-counted: a reader holding the
//     shared_ptr from Snapshot() may keep using it for as long as it
//     likes after newer epochs supersede it.
class QueryService {
 public:
  // The publish policy (DESIGN.md §4c, §4f), fixed for every service.
  // A publish is a delta (a WithDelta overlay over the previous snapshot)
  // unless the previous snapshot is of another lineage, kMaxDeltaPublishes
  // deltas ran since the last full publish, or more than
  // kMaxDeltaDirtyFraction of all nodes are dirty.  A full publish folds
  // the dirty nodes into the previous base arena when that fraction
  // allows, and rebuilds the arena from every label otherwise.  The
  // kChainReoptimizeCadence-th consecutive full publish over a chain-fast
  // cover first relabels with Alg1 (Reoptimize), re-tightening the
  // interval count the chain tier let grow.
  static constexpr int kMaxDeltaPublishes = 32;
  static constexpr double kMaxDeltaDirtyFraction = 0.5;
  static constexpr int kChainReoptimizeCadence = 8;

  explicit QueryService(const ServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Writer API (single writer) ----------------------------------------

  // Replaces the index with a freshly built closure of `graph` and
  // publishes it.  Chain-eligible graphs (AnalyzeChains) are labeled by
  // the chain-fast build, all others, and any chain build that fails, by
  // Alg1.  Fails if `graph` is cyclic (condense first; see
  // TransitiveClosureIndex).
  Status Load(const Digraph& graph);

  // DynamicClosure updates, applied under the writer mutex.  Not visible
  // to readers until Publish().
  StatusOr<NodeId> AddLeafUnder(NodeId parent);
  Status AddArc(NodeId from, NodeId to);
  Status RemoveArc(NodeId from, NodeId to);

  // Escape hatch for compound maintenance (e.g. RefineAbove + arcs as one
  // unit): runs `fn` on the live index under the writer mutex.
  Status Apply(const std::function<Status(DynamicClosure&)>& fn);

  // Exports the writer's current state as an immutable snapshot and
  // atomically swaps it in.  Returns the new epoch.
  uint64_t Publish();

  // --- Reader API (any thread, lock-free) --------------------------------

  // A counted handle on the current snapshot, for callers that keep one
  // across calls.  Never null; epoch 0 before the first Load/Publish.
  // Copying it touches the shared reference count, which Reaches,
  // Successors and the batch calls avoid by pinning the snapshot for the
  // call instead.
  std::shared_ptr<const ClosureSnapshot> Snapshot() const {
    return snapshot_.Load();
  }

  // Single-shot conveniences against the current snapshot.
  bool Reaches(NodeId u, NodeId v) const;
  std::vector<NodeId> Successors(NodeId u) const;

  // Batched lookups, run on the calling thread.  The whole batch is
  // answered from ONE snapshot, pinned for the call, so results are
  // mutually consistent even while the writer publishes concurrently.
  // Out-of-range ids follow snapshot semantics (unreachable / empty),
  // never abort.  A caller that wants to fan a very large batch out can
  // split it over its own threads against one Snapshot():
  // ClosureSnapshot::BatchReaches is const and safe to call from several
  // threads at once.
  std::vector<uint8_t> BatchReaches(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;
  std::vector<std::vector<NodeId>> BatchSuccessors(
      const std::vector<NodeId>& nodes) const;

  // Admission-controlled twins for serving-edge callers: when
  // ServiceOptions::max_inflight_batches is set and that many batches
  // are already executing, the call is rejected with kResourceExhausted
  // — counted in ServiceMetrics, never silently dropped — so overload
  // turns into fast, visible shedding instead of unbounded queueing.
  // With the limit unset they behave exactly like the plain entry
  // points.
  StatusOr<std::vector<uint8_t>> TryBatchReaches(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;
  StatusOr<std::vector<std::vector<NodeId>>> TryBatchSuccessors(
      const std::vector<NodeId>& nodes) const;

  // RAII occupancy of one batch-admission slot, held exactly as an
  // executing batch holds one.  Maintenance code can drain batch
  // traffic by acquiring slots up to the limit (new Try* batches then
  // shed while singles keep flowing); tests pin the gate
  // deterministically.  Acquisition always succeeds — slots are
  // occupancy, not permits.
  class ScopedBatchSlot {
   public:
    explicit ScopedBatchSlot(const QueryService& service);
    ~ScopedBatchSlot();
    ScopedBatchSlot(ScopedBatchSlot&& other) noexcept;
    ScopedBatchSlot(const ScopedBatchSlot&) = delete;
    ScopedBatchSlot& operator=(const ScopedBatchSlot&) = delete;
    ScopedBatchSlot& operator=(ScopedBatchSlot&&) = delete;

   private:
    const QueryService* service_;
  };
  ScopedBatchSlot AcquireBatchSlot() const { return ScopedBatchSlot(*this); }

  // Batches executing right now (plus any held ScopedBatchSlots).
  int64_t InflightBatches() const {
    return inflight_batches_.load(std::memory_order_relaxed);
  }

  // Counter snapshot, with the epoch/age/size fields of the live index
  // snapshot filled in.
  ServiceMetrics::View Metrics() const;

  // --- Observability (src/obs/, DESIGN.md §5) -----------------------------

  // The sampled query tracer.  Mutable access so callers (tools, tests)
  // can flip the sampling period on a live service.
  QueryTracer& tracer() const { return tracer_; }
  // Publish-pipeline spans, split per strategy per phase.
  const SpanLog& span_log() const { return span_log_; }
  // Queries/batches that exceeded the slow thresholds (always on).
  const SlowQueryLog& slow_log() const { return slow_log_; }
  // Windowed latency percentiles.  Series: "single" (sampled point
  // lookups — the unsampled path never reads a clock) and "batch"
  // (every batch call, at zero extra clock cost: batches are already
  // timed for metrics).
  const LatencyRollup& rollup() const { return rollup_; }
  // The anomaly flight recorder over rollup() (obs/flight_recorder.h).
  FlightRecorder& flight_recorder() const { return flight_; }
  // Runs the flight-recorder detectors against the live counters.
  // Called from /flightz and /metricsz rendering and after publishes;
  // safe from any thread.  Returns true when a capture was frozen.
  bool CheckFlightRecorder() const;

 private:
  // Builds and swaps in a snapshot of `dynamic_`; writer mutex held.
  // Chooses between a WithDelta overlay publish and a full one, and for a
  // full one between folding into the previous base and rebuilding (see
  // kMaxDeltaPublishes and DESIGN.md §4c).
  uint64_t PublishLocked();

  // Cold traced twin of Reaches, taken only for sampled queries.
  bool ReachesSampled(NodeId u, NodeId v) const;

  // Shared batch bodies; callers hold an inflight slot around them.
  std::vector<uint8_t> BatchReachesImpl(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;
  std::vector<std::vector<NodeId>> BatchSuccessorsImpl(
      const std::vector<NodeId>& nodes) const;

  // True (slot kept) if another batch may start; false (slot released,
  // rejection counted) when the admission limit is hit.
  bool AdmitBatch() const;

  // The one spare arena (DESIGN.md §4c): the memory of the last folded
  // base arena that no snapshot uses any more.  Defined in the .cc.
  struct ArenaSpare;
  // The target of the next fold: the spare's arena (an empty one when
  // none waits), owned so that its arrays go back into the spare when the
  // last snapshot sharing it is freed, on whichever thread frees it.
  std::shared_ptr<LabelArena> TakeSpareArena();

  ServiceOptions options_;
  mutable ServiceMetrics metrics_;
  mutable QueryTracer tracer_;
  SpanLog span_log_;  // Written by the (single) publisher only.
  mutable SlowQueryLog slow_log_;
  mutable LatencyRollup rollup_;
  mutable FlightRecorder flight_;

  std::mutex writer_mutex_;
  DynamicClosure dynamic_;  // Guarded by writer_mutex_.
  uint64_t epoch_ = 0;      // Guarded by writer_mutex_.
  // Delta publishes since the last full export; guarded by writer_mutex_.
  int delta_publishes_since_full_ = 0;
  // Consecutive chain-full publishes since the last Alg1-optimal one;
  // drives kChainReoptimizeCadence.  Guarded by writer_mutex_.
  int chain_fulls_since_optimal_ = 0;
  // Set when the previous snapshot cannot serve as a delta base (initial
  // state, or Load() swapped in a new index lineage).
  bool force_full_publish_ = true;  // Guarded by writer_mutex_.
  // Shared with the deleters of this service's folded arenas; never
  // reassigned, so Metrics() may read it from any thread.
  const std::shared_ptr<ArenaSpare> spare_;

  // The published snapshot; its reader slots count reach and successor
  // queries.
  using SnapshotPtr = PublishedPtr<ClosureSnapshot, 2>;
  static constexpr int kReachQueries = 0;
  static constexpr int kSuccessorQueries = 1;
  SnapshotPtr snapshot_;
  // Batches (and ScopedBatchSlots) currently occupying admission slots.
  mutable std::atomic<int64_t> inflight_batches_{0};
};

}  // namespace trel

#endif  // TREL_SERVICE_QUERY_SERVICE_H_

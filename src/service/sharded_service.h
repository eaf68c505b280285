#ifndef TREL_SERVICE_SHARDED_SERVICE_H_
#define TREL_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "graph/digraph.h"
#include "obs/flight_recorder.h"
#include "obs/rollup.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "service/published_ptr.h"
#include "service/query_service.h"

namespace trel {

// Options for ShardedQueryService.  Each shard runs a full QueryService
// (same options for all shards).
struct ShardedServiceOptions {
  // Load partitions with PartitionDag's default cut window (see
  // graph/partition.h).
  int num_shards = 4;

  // Options applied to every per-shard QueryService.
  ServiceOptions shard;

  // --- Observability of the sharded front end (DESIGN.md §5) --------------
  // These govern the FRONT-END tracer / slow log / windowed rollup /
  // flight recorder, which see sampled singles and every batch with
  // their cross-shard routing and stage attribution; each shard's own
  // QueryService additionally keeps its local observability (options
  // above in `shard`).
  // Sample 1-in-N front-end queries; 0 = off.  A nonzero
  // TREL_TRACE_SAMPLE env value overrides this at construction.
  uint32_t trace_sample_period = 0;
  // SAMPLED single queries slower than this land in the slow-query log;
  // 0 disables.  As on the monolithic service, only sampled singles read
  // the clock, so coverage follows trace_sample_period.
  int64_t slow_query_micros = 10000;
  int64_t slow_batch_micros = 100000;
  FlightRecorder::Options flight;
};

// Counter/gauge view of the sharded layer itself; per-shard counters
// live in each shard's own ServiceMetrics (see shard(s).Metrics()).
struct ShardedMetricsView {
  int num_shards = 0;
  uint64_t epoch = 0;
  int64_t num_nodes = 0;
  int64_t num_hubs = 0;
  int64_t boundary_label_bytes = 0;
  int64_t cross_shard_queries = 0;
  // Always 0: hub pairs settle on the bitsets like every other pair.
  // Kept only because the benchmark's sharded.hub_hop_share row reads it.
  int64_t hub_hop_queries = 0;
  int64_t boundary_republishes = 0;
  int64_t boundary_skips = 0;
  int64_t hub_promotions = 0;

  // Machine-checkable one-liner for /statusz (the sharded analogue of
  // ServiceMetrics::View::ToString()).
  std::string ToString() const;
};

// A horizontally partitioned QueryService (DESIGN.md §"Sharded query
// service").
//
// The DAG is split into K topological-range shards (graph/partition.h);
// each shard is served by its own single-writer QueryService, so updates
// to different shards commit and publish concurrently instead of
// serializing on one writer mutex.  Cross-shard reachability goes
// through a global boundary index: every cut arc is incident to a "hub"
// node, and per node the service maintains two hub bitsets —
// out_bits[u] = hubs reachable from u, in_bits[v] = hubs reaching v
// (both reflexive for hubs).  Those bitsets ARE a 2-hop labeling with
// the hubs as centers, the reachability oracle of Jin & Wang (PAPERS.md):
//
//   Reaches(u, v) = u == v
//                 | out_bits[u] & in_bits[v] != 0
//                 | same_shard(u, v) && shard.Reaches(local_u, local_v)
//
// which is exact: a path either stays inside one shard hub-free (the
// shard's interval labels see every intra-shard arc) or touches a hub,
// and the first hub on the path witnesses the bitset intersection.
// Singles, batches and Successors all settle a pair by this one rule
// (SettlePair), hub pairs included.
//
// Writers: ops whose endpoints share a shard run inside that shard's
// writer mutex (QueryService::Apply) and then update the global mirror +
// bitsets under the boundary mutex; cross-shard arcs touch only the
// boundary state.  Lock order is always shard-then-boundary.  A new
// cross-shard arc between two non-hubs promotes the higher-degree
// endpoint to hub (the cover invariant is maintained dynamically).
//
// Publication: Publish() publishes every shard, then republishes the
// boundary snapshot only if a boundary row actually changed (or nodes /
// hubs were added); bitset and routing storage is chunked copy-on-write,
// so a republish after a typical leaf-append run copies only the tail
// chunk.  Readers are lock-free: a single query pins the boundary
// snapshot, then the deciding shard's snapshot, each in the calling
// thread's own reader slot of that service (service/published_ptr.h).
//
// Sharding pays off on clustered input (the sharded_mix benchmark's
// ClusteredDag), where the hubs are a few percent of the nodes and a
// bitset row is a word or two.  On unclustered input the hub cover grows
// with the graph (PartitionDag), the bitsets cost hubs × nodes bits each
// way, and a hub pair that is not reachable scans two long rows; such a
// graph is better served by one QueryService (DESIGN.md §7).
//
// Snapshot semantics match the monolithic service: ids unknown to the
// published boundary snapshot reach nothing and are reached by nothing.
// A batch reads one boundary snapshot plus one snapshot per shard it
// touches; under concurrent publishes those can differ by an epoch
// (each sub-answer is individually consistent).
class ShardedQueryService {
 public:
  explicit ShardedQueryService(
      const ShardedServiceOptions& options = ShardedServiceOptions());
  ~ShardedQueryService();

  ShardedQueryService(const ShardedQueryService&) = delete;
  ShardedQueryService& operator=(const ShardedQueryService&) = delete;

  // --- Writer API ----------------------------------------------------

  // Replaces all state: partitions `graph`, loads every shard, rebuilds
  // the boundary index, and publishes.  Node ids are preserved (global
  // ids are the caller's ids; shards remap internally).  Fails with
  // ResourceExhausted, as the monolithic Load does, when a shard's
  // numbering would pass the 32-bit labels; the previous graph stays.
  Status Load(const Digraph& graph);

  // Mutators mirror DynamicClosure semantics and error codes.  New
  // leaves join their parent's shard (shard 0 for parentless roots) and
  // get the next sequential global id.
  StatusOr<NodeId> AddLeafUnder(NodeId parent);
  Status AddArc(NodeId from, NodeId to);
  Status RemoveArc(NodeId from, NodeId to);

  // Publishes every shard, then the boundary layer if dirty.  Returns
  // the new global publish epoch.
  uint64_t Publish();

  // Publishes one shard (plus the boundary layer if dirty) — the
  // concurrent-writer entry point: K threads each publishing their own
  // shard serialize only on the (cheap) boundary step.
  uint64_t PublishShard(int shard);

  // --- Reader API (lock-free) ----------------------------------------

  bool Reaches(NodeId u, NodeId v) const;
  std::vector<uint8_t> BatchReaches(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;

  // Successor enumeration across shards, ascending by global id.  This
  // is a diagnostics path (O(n) bitset scan + per-shard batch), not a
  // hot path.
  std::vector<NodeId> Successors(NodeId u) const;

  // --- Introspection --------------------------------------------------

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const QueryService& shard(int s) const { return *shards_[s]; }
  QueryService& shard(int s) { return *shards_[s]; }

  // Shard owning `node`, or -1 for ids the writer has never seen.
  int ShardOf(NodeId node) const;

  uint64_t Epoch() const { return epoch_.load(std::memory_order_relaxed); }
  ShardedMetricsView MetricsView() const;

  // --- Observability (front-end; per-shard obs via shard(s)) ----------

  // The front-end tracer: sampled queries carry stage attribution
  // (StageTrace) and the deciding shard.  Mutable so tools can flip the
  // sampling period on a live service.
  QueryTracer& tracer() const { return tracer_; }
  // Slow front-end queries/batches, always shard-attributed.
  const SlowQueryLog& slow_log() const { return slow_log_; }
  // Windowed latency percentiles.  Series layout: the four pipeline
  // stages ("route", "boundary_bitset", "shard_query", "merge")
  // indexed by QueryStage, then "single" and "batch"
  // end-to-end, then "shard<s>" (singles attributed to the source
  // endpoint's shard).  Every batch feeds the stage and "batch" series;
  // only sampled singles feed the stage, "single" and "shard<s>" series
  // (the unsampled path never reads a clock).
  const LatencyRollup& rollup() const { return rollup_; }
  // The anomaly flight recorder over rollup() (obs/flight_recorder.h).
  FlightRecorder& flight_recorder() const { return flight_; }
  // Runs the flight-recorder detectors against the live counters
  // (rejected batches summed over shards, boundary republishes, last
  // publish span).  Called from /flightz and /metricsz rendering and
  // after publishes; safe from any thread.
  bool CheckFlightRecorder() const;

 private:
  // Reads the hub registry and the published boundary rows, for tests
  // and their failure messages (tests/sharded_service_test.cc).
  friend class ShardedQueryServicePeer;

  static constexpr int64_t kRowsPerChunk = 4096;

  struct BitsChunk {
    std::vector<uint64_t> words;
  };
  struct RoutingChunk {
    std::vector<int32_t> data;
  };

  // Append-only chunked int32 array.  Snapshots share chunk pointers;
  // appends write into pre-sized slots past every snapshot's high-water
  // mark, so sharing needs no copy-on-write.
  class AppendArray {
   public:
    void Reset();
    void Append(int32_t value);
    int32_t At(int64_t i) const;
    int64_t size() const { return size_; }
    const std::vector<std::shared_ptr<RoutingChunk>>& chunks() const {
      return chunks_;
    }

   private:
    std::vector<std::shared_ptr<RoutingChunk>> chunks_;
    int64_t size_ = 0;
  };

  // Chunked copy-on-write bitset matrix (rows x words_per_row).  Row
  // mutation clones chunks shared with a published snapshot; row appends
  // write in place (past snapshot bounds).
  class HubBits {
   public:
    void Reset(int words_per_row);
    void AppendRow(const uint64_t* src);  // nullptr = zero row
    const uint64_t* Row(int64_t r) const;
    uint64_t* MutableRow(int64_t r);  // copy-on-write; marks dirty
    void GrowWords(int new_words);    // re-layout; marks dirty
    void MarkAllShared();             // after a snapshot took the chunks
    void ClearDirty() { dirty_ = false; }
    bool dirty() const { return dirty_; }
    int words() const { return words_; }
    int64_t rows() const { return rows_; }
    const std::vector<std::shared_ptr<BitsChunk>>& chunks() const {
      return chunks_;
    }

   private:
    int words_ = 0;
    int64_t rows_ = 0;
    std::vector<std::shared_ptr<BitsChunk>> chunks_;
    std::vector<uint8_t> shared_;
    bool dirty_ = false;
  };

  // Immutable published boundary layer.
  struct BoundarySnapshot {
    uint64_t epoch = 0;
    int64_t num_nodes = 0;
    int words = 0;
    std::vector<std::shared_ptr<BitsChunk>> out_chunks;
    std::vector<std::shared_ptr<BitsChunk>> in_chunks;
    std::vector<std::shared_ptr<RoutingChunk>> shard_chunks;
    std::vector<std::shared_ptr<RoutingChunk>> local_chunks;
    int64_t num_hubs = 0;
    int64_t label_bytes = 0;  // Both bitset matrices.

    const uint64_t* OutRow(int64_t r) const;
    const uint64_t* InRow(int64_t r) const;
    int32_t ShardOfAt(int64_t r) const;
    int32_t LocalIdAt(int64_t r) const;
  };

  // How one pair routed: the endpoint shards (-1 when an id is unknown
  // or u == v), the shard whose local index decides it (-1 = the
  // boundary layer decided without consulting a shard), and the probe
  // tag for the trace record.
  struct RouteInfo {
    int32_t su = -1;
    int32_t sv = -1;
    int32_t shard = -1;
    ProbeTag tag = ProbeTag::kSlot;
  };

  // The published boundary; its reader slots count cross-shard queries.
  enum BoundaryCounter { kCrossShardQueries = 0 };
  using BoundaryPtr = PublishedPtr<BoundarySnapshot, 1>;

  // Settles (u, v) on boundary `b` by the rule in the class comment.
  // Every read path calls it, so a single, a batch element and a
  // Successors candidate settle alike.  Returns 1 or 0 when the boundary
  // decides (an unknown id, u == v, a shared hub, or no shared hub across
  // shards), or -1 when the pair is route->shard's to answer.  `routed()`
  // runs once route->su and route->sv are set, before the bitset probe;
  // the sampled single closes its route stage there.
  template <typename Routed>
  static int SettlePair(const BoundarySnapshot& b, NodeId u, NodeId v,
                        RouteInfo* route, const Routed& routed);

  // The single-query pipeline over the pinned boundary `b`: SettlePair,
  // then the owning shard's Reaches for the pairs it defers.
  // kTimed=false is the hot path: no clock reads at all.  kTimed=true
  // (sampled queries) attributes elapsed nanos to `stages` stage by
  // stage on the same monotonic clock as ReachesSampled's end-to-end
  // pair, so the stage sum never exceeds the total.
  template <bool kTimed>
  bool ReachesCore(const BoundaryPtr::Pin& b, NodeId u, NodeId v,
                   RouteInfo* route, StageTrace* stages) const;

  // Cold traced twin of Reaches: stage timing, trace record, rollup and
  // slow-log bookkeeping.
  bool ReachesSampled(NodeId u, NodeId v) const;

  // Publishes the last publish span to the flight-recorder inputs.
  void NotePublish(uint64_t epoch, int64_t micros);

  // Writer-side helpers; all assume boundary_mutex_ is held.
  bool WorkingBitsHitLocked(NodeId a, NodeId b) const;
  bool ReachesGloballyLocked(NodeId a, NodeId b,
                             const DynamicClosure* same_shard_dyn) const;
  void ApplyArcBitsLocked(NodeId from, NodeId to);
  void AppendLeafBitsLocked(NodeId parent);
  void PromoteHubLocked(NodeId node);
  void RebuildBitsLocked();
  void PropagateRowsLocked(HubBits& bits, NodeId start, bool backward,
                           const std::vector<uint64_t>& src);
  bool OrRowChangedLocked(HubBits& bits, NodeId row,
                          const std::vector<uint64_t>& src);
  void PublishBoundaryLocked();

  ShardedServiceOptions options_;
  std::vector<std::unique_ptr<QueryService>> shards_;

  // Global writer state: the full-graph mirror (for validation, cycle
  // checks, and bitset propagation), routing arrays, hub registry, and
  // the working bitsets.  Guarded by boundary_mutex_; lock order is
  // shard writer mutex first (via QueryService::Apply), boundary second.
  mutable std::mutex boundary_mutex_;
  Digraph mirror_;
  AppendArray shard_of_;
  AppendArray local_id_;
  std::vector<uint8_t> is_hub_;
  std::vector<int32_t> hub_bit_of_;
  std::vector<NodeId> hub_at_bit_;
  HubBits out_bits_;
  HubBits in_bits_;
  int64_t published_nodes_ = -1;
  int published_words_ = -1;
  int64_t published_hubs_ = -1;

  BoundaryPtr boundary_;
  std::atomic<uint64_t> epoch_{0};

  std::atomic<int64_t> boundary_republishes_{0};
  std::atomic<int64_t> boundary_skips_{0};
  std::atomic<int64_t> hub_promotions_{0};

  // Front-end observability (see the accessors above for semantics).
  mutable QueryTracer tracer_;
  mutable SlowQueryLog slow_log_;
  mutable LatencyRollup rollup_;
  mutable FlightRecorder flight_;
  std::atomic<int64_t> last_publish_micros_{0};
  std::atomic<uint64_t> last_publish_epoch_{0};
  std::atomic<bool> has_publish_{false};
};

}  // namespace trel

#endif  // TREL_SERVICE_SHARDED_SERVICE_H_

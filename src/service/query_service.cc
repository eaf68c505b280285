#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/chain_propagator.h"
#include "core/simd_dispatch.h"

namespace trel {

namespace {

// Upper bound on trace records emitted per sampled batch: enough to see
// the outcome mix without one big batch flushing every ring.
constexpr int64_t kMaxBatchTraceRecords = 32;

// Rollup series of the monolithic service (constructor order).
constexpr int kRollupSingle = 0;
constexpr int kRollupBatch = 1;

}  // namespace

// --- QueryService ----------------------------------------------------------

// Folded arenas come back here from their deleters, which run on whichever
// thread frees an arena's last snapshot: the writer's Reclaim, or a reader
// dropping a Snapshot() handle.
struct QueryService::ArenaSpare {
  std::mutex mutex;
  // Guarded by mutex.  An arriving arena replaces the one held.
  LabelArena arena;
  // Guarded by mutex.  Load bumps it, and an arena folded under an older
  // lineage is freed rather than kept: a new graph never inherits the
  // memory sized for the old one.
  uint64_t lineage = 0;
};

QueryService::QueryService(const ServiceOptions& options)
    : options_(options),
      rollup_({"single", "batch"}),
      flight_(options.flight),
      dynamic_(options.closure),
      spare_(std::make_shared<ArenaSpare>()) {
  const uint32_t env_period = QueryTracer::PeriodFromEnv();
  tracer_.SetSamplePeriod(env_period != 0 ? env_period
                                          : options_.trace_sample_period);
  flight_.Attach(&rollup_, [this](FlightCapture* capture) {
    capture->traces = tracer_.Drain();
    capture->spans = span_log_.Recent();
    capture->slow = slow_log_.Recent();
    capture->metrics = Metrics().ToString();
  });
  std::lock_guard<std::mutex> lock(writer_mutex_);
  epoch_ = static_cast<uint64_t>(-1);  // So the empty snapshot is epoch 0.
  PublishLocked();
}

QueryService::~QueryService() = default;

Status QueryService::Load(const Digraph& graph) {
  // Tiered build (DESIGN.md §4f): the chain-fast path replaces Alg1's
  // antichain-optimal cover with a greedy path cover when the cover is
  // narrow, cutting the dominant full-build cost.  Any chain-path failure
  // (cycle, entry cap) falls through to the Alg1 build, which reports the
  // authoritative status.
  StatusOr<DynamicClosure> built(FailedPreconditionError("unbuilt"));
  const StatusOr<ChainSignals> signals = AnalyzeChains(graph);
  if (signals.ok() && signals->eligible) {
    built = DynamicClosure::BuildWithChains(graph, options_.closure);
  }
  if (!built.ok()) {
    built = DynamicClosure::Build(graph, options_.closure);
  }
  TREL_RETURN_IF_ERROR(built.status());
  std::lock_guard<std::mutex> lock(writer_mutex_);
  dynamic_ = std::move(*built);
  // A fresh index is a new lineage: the previous snapshot's node ids mean
  // nothing to it, so it can never serve as a delta base, and its folds
  // start without a spare.
  force_full_publish_ = true;
  chain_fulls_since_optimal_ = 0;
  LabelArena dropped;
  {
    std::lock_guard<std::mutex> spare_lock(spare_->mutex);
    ++spare_->lineage;
    std::swap(dropped, spare_->arena);
  }
  PublishLocked();
  return Status::Ok();
}

std::shared_ptr<LabelArena> QueryService::TakeSpareArena() {
  auto target = std::make_unique<LabelArena>();
  uint64_t lineage = 0;
  {
    std::lock_guard<std::mutex> lock(spare_->mutex);
    std::swap(*target, spare_->arena);
    lineage = spare_->lineage;
  }
  return std::shared_ptr<LabelArena>(
      target.release(), [home = std::weak_ptr<ArenaSpare>(spare_),
                         lineage](LabelArena* retired) {
        // While the service and its lineage last, the retired arrays take
        // the spare's place; the delete frees whatever they displaced.
        if (const std::shared_ptr<ArenaSpare> spare = home.lock()) {
          std::lock_guard<std::mutex> lock(spare->mutex);
          if (spare->lineage == lineage) std::swap(*retired, spare->arena);
        }
        delete retired;
      });
}

StatusOr<NodeId> QueryService::AddLeafUnder(NodeId parent) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return dynamic_.AddLeafUnder(parent);
}

Status QueryService::AddArc(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return dynamic_.AddArc(from, to);
}

Status QueryService::RemoveArc(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return dynamic_.RemoveArc(from, to);
}

Status QueryService::Apply(
    const std::function<Status(DynamicClosure&)>& fn) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return fn(dynamic_);
}

uint64_t QueryService::Publish() {
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    epoch = PublishLocked();
  }
  // Detector pass outside the writer mutex: a stalled publish freezes
  // its capture right here instead of waiting for the next scrape.
  CheckFlightRecorder();
  return epoch;
}

bool QueryService::CheckFlightRecorder() const {
  FlightRecorder::Inputs inputs;
  inputs.batches_rejected = metrics_.batches_rejected();
  if (const std::optional<PublishSpan> last = span_log_.Last()) {
    inputs.has_publish = true;
    inputs.last_publish_micros = last->total_micros;
    inputs.last_publish_epoch = last->epoch;
  }
  return flight_.Check(inputs);
}

uint64_t QueryService::PublishLocked() {
  Stopwatch timer;
  PublishSpan span;
  // Free snapshots that readers still pinned at earlier swaps before
  // building the next one, so they never coexist with it and a folded
  // arena they retire reaches the spare before a fold takes it.
  snapshot_.Reclaim();
  std::shared_ptr<const ClosureSnapshot> base = snapshot_.Load();
  auto snapshot = std::make_shared<ClosureSnapshot>();
  snapshot->epoch = ++epoch_;
  span.epoch = epoch_;

  const NodeId num_nodes = dynamic_.NumNodes();
  // The previous snapshot is a base for this lineage, and few enough
  // nodes changed since it that an overlay over it stays cheap.
  const bool has_base = !force_full_publish_ && base != nullptr;
  const auto few_dirty = [&] {
    return static_cast<double>(dynamic_.DirtyCount()) <=
           kMaxDeltaDirtyFraction * static_cast<double>(num_nodes);
  };
  const bool use_delta = has_base &&
                         delta_publishes_since_full_ < kMaxDeltaPublishes &&
                         few_dirty();
  bool folded = false;
  Stopwatch phase;
  if (use_delta) {
    span.strategy = PublishStrategy::kDelta;
    snapshot->publish_strategy = PublishStrategy::kDelta;
    ClosureDelta delta = dynamic_.ExportDelta();
    span.phase_micros[static_cast<int>(PublishPhase::kDrain)] =
        phase.ElapsedMicros();
    phase.Restart();
    snapshot->closure = CompressedClosure::WithDelta(base->closure, delta);
    span.phase_micros[static_cast<int>(PublishPhase::kExport)] =
        phase.ElapsedMicros();
    snapshot->delta_publish = true;
    snapshot->delta_entries = static_cast<int64_t>(delta.entries.size());
    ++delta_publishes_since_full_;
  } else {
    // Chain labelings trade interval count for build speed; every Nth
    // consecutive chain full re-tightens with an Alg1 rebuild before
    // exporting.  Rebuilds are timed as their own span phase.
    if (dynamic_.UsesChainCover() &&
        chain_fulls_since_optimal_ + 1 >= kChainReoptimizeCadence) {
      dynamic_.Reoptimize();
    }
    span.phase_micros[static_cast<int>(PublishPhase::kRebuild)] =
        phase.ElapsedMicros();
    phase.Restart();
    // The strategy tag records labeling provenance.
    const PublishStrategy full_strategy =
        dynamic_.UsesChainCover() ? PublishStrategy::kChainFull
                                  : PublishStrategy::kOptimalFull;
    span.strategy = full_strategy;
    snapshot->publish_strategy = full_strategy;
    if (full_strategy == PublishStrategy::kChainFull) {
      ++chain_fulls_since_optimal_;
    } else {
      chain_fulls_since_optimal_ = 0;
    }
    // Counted after the tier step: a rebuild above dirtied every node.
    folded = has_base && few_dirty();
    // Fold the dirty nodes into a copy of the base arena when few changed
    // (DESIGN.md §4c), else rebuild the arena from every label set: the
    // same arena either way, byte for byte, timed as the arena phase.  A
    // fold writes into the spare's memory; a rebuild allocates afresh.
    Stopwatch arena_timer;
    if (folded) {
      const CompressedClosure layered =
          CompressedClosure::WithDelta(base->closure, dynamic_.ExportDelta());
      arena_timer.Restart();
      snapshot->closure = CompressedClosure::Fold(layered, TakeSpareArena());
    } else {
      snapshot->closure = dynamic_.ExportClosure();
    }
    const int64_t arena_micros = arena_timer.ElapsedMicros();
    // When folding, the export span is the delta drain and overlay; the
    // arena rebuild or fold is its own phase.
    span.phase_micros[static_cast<int>(PublishPhase::kExport)] =
        std::max<int64_t>(0, phase.ElapsedMicros() - arena_micros);
    span.phase_micros[static_cast<int>(PublishPhase::kArenaBuild)] =
        arena_micros;
    phase.Restart();
    // The full export captured every node, so the dirty set is settled
    // (a fold already drained it).
    dynamic_.MarkClean();
    span.phase_micros[static_cast<int>(PublishPhase::kDrain)] =
        phase.ElapsedMicros();
    delta_publishes_since_full_ = 0;
    force_full_publish_ = false;
  }
  snapshot->created_at = std::chrono::steady_clock::now();
  const int64_t delta_entries = snapshot->delta_entries;
  const int64_t total_intervals = snapshot->closure.TotalIntervals();
  phase.Restart();
  snapshot_.Publish(std::move(snapshot));
  span.phase_micros[static_cast<int>(PublishPhase::kSwap)] =
      phase.ElapsedMicros();
  span.total_micros = timer.ElapsedMicros();
  span_log_.Record(span);
  if (use_delta) {
    metrics_.RecordPublishDelta(span.total_micros, delta_entries);
  } else {
    metrics_.RecordPublishFull(span.strategy, span.total_micros,
                               total_intervals, folded);
  }
  return epoch_;
}

bool QueryService::Reaches(NodeId u, NodeId v) const {
  // With tracing off (the default) ShouldSample is one relaxed load and
  // one never-taken branch — the whole per-query observability cost.
  if (tracer_.ShouldSample()) return ReachesSampled(u, v);
  const SnapshotPtr::Pin snapshot(snapshot_);
  snapshot.Add(kReachQueries);
  return snapshot->Reaches(u, v);
}

bool QueryService::ReachesSampled(NodeId u, NodeId v) const {
  const auto start = std::chrono::steady_clock::now();
  const SnapshotPtr::Pin snapshot(snapshot_);
  snapshot.Add(kReachQueries);
  ProbeTrace trace;
  const bool answer = snapshot->ReachesTraced(u, v, &trace);
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  tracer_.Record(u, v, answer, /*from_batch=*/false, trace.tag,
                 trace.extras_probes, snapshot->epoch, nanos);
  rollup_.Record(kRollupSingle, static_cast<int64_t>(nanos));
  if (options_.slow_query_micros > 0 &&
      nanos >= static_cast<uint64_t>(options_.slow_query_micros) * 1000) {
    SlowQueryEntry entry;
    entry.is_batch = false;
    entry.source = u;
    entry.target = v;
    entry.answer = answer;
    entry.tag = trace.tag;
    entry.epoch = snapshot->epoch;
    entry.micros = static_cast<int64_t>(nanos / 1000);
    slow_log_.Record(entry);
  }
  return answer;
}

std::vector<NodeId> QueryService::Successors(NodeId u) const {
  const SnapshotPtr::Pin snapshot(snapshot_);
  snapshot.Add(kSuccessorQueries);
  return snapshot->Successors(u);
}

// --- Batch admission ---------------------------------------------------------

QueryService::ScopedBatchSlot::ScopedBatchSlot(const QueryService& service)
    : service_(&service) {
  service_->inflight_batches_.fetch_add(1, std::memory_order_relaxed);
}

QueryService::ScopedBatchSlot::~ScopedBatchSlot() {
  if (service_ != nullptr) {
    service_->inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
  }
}

QueryService::ScopedBatchSlot::ScopedBatchSlot(ScopedBatchSlot&& other) noexcept
    : service_(other.service_) {
  other.service_ = nullptr;
}

bool QueryService::AdmitBatch() const {
  // The caller has already taken its slot; reject when that pushed the
  // occupancy past the limit.  fetch_add-then-check keeps the gate one
  // relaxed RMW — two racing batches at the boundary can both see
  // "over" and both shed, which is the safe direction under overload.
  if (options_.max_inflight_batches <= 0) return true;
  if (inflight_batches_.load(std::memory_order_relaxed) <=
      options_.max_inflight_batches) {
    return true;
  }
  metrics_.RecordBatchRejected();
  return false;
}

std::vector<uint8_t> QueryService::BatchReaches(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
  const ScopedBatchSlot slot(*this);
  return BatchReachesImpl(pairs);
}

StatusOr<std::vector<uint8_t>> QueryService::TryBatchReaches(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
  const ScopedBatchSlot slot(*this);
  if (!AdmitBatch()) {
    return Status(StatusCode::kResourceExhausted,
                  "batch rejected: max_inflight_batches reached");
  }
  return BatchReachesImpl(pairs);
}

std::vector<std::vector<NodeId>> QueryService::BatchSuccessors(
    const std::vector<NodeId>& nodes) const {
  const ScopedBatchSlot slot(*this);
  return BatchSuccessorsImpl(nodes);
}

StatusOr<std::vector<std::vector<NodeId>>> QueryService::TryBatchSuccessors(
    const std::vector<NodeId>& nodes) const {
  const ScopedBatchSlot slot(*this);
  if (!AdmitBatch()) {
    return Status(StatusCode::kResourceExhausted,
                  "batch rejected: max_inflight_batches reached");
  }
  return BatchSuccessorsImpl(nodes);
}

std::vector<uint8_t> QueryService::BatchReachesImpl(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
  Stopwatch timer;
  const int64_t n = static_cast<int64_t>(pairs.size());
  const SnapshotPtr::Pin snapshot(snapshot_);
  std::vector<uint8_t> results(pairs.size());
  // The dispatched pipelined batch kernel rather than per-element
  // snapshot->Reaches; its id handling matches snapshot semantics
  // (unknown ids answer false).  Sampling is per batch: a sampled batch
  // runs the tagged kernel twin (identical answers and stats) and later
  // emits a bounded, evenly spaced selection of its per-query outcomes as
  // trace records.
  const bool sampled = n > 0 && tracer_.ShouldSample();
  std::vector<uint8_t> tags;
  BatchKernelStats stats;
  if (sampled) {
    tags.resize(pairs.size());
    snapshot->BatchReachesTraced(pairs.data(), n, results.data(), &stats,
                                 tags.data());
  } else {
    snapshot->BatchReaches(pairs.data(), n, results.data(), &stats);
  }
  metrics_.RecordBatchKernel(stats);
  snapshot.Add(kReachQueries, n);
  const int64_t micros = timer.ElapsedMicros();
  metrics_.RecordBatch(micros);
  rollup_.Record(kRollupBatch, micros * 1000);
  if (sampled) {
    const uint64_t per_query_nanos =
        static_cast<uint64_t>(micros) * 1000 / static_cast<uint64_t>(n);
    const int64_t stride = std::max<int64_t>(1, n / kMaxBatchTraceRecords);
    for (int64_t i = 0; i < n; i += stride) {
      tracer_.Record(pairs[i].first, pairs[i].second, results[i] != 0,
                     /*from_batch=*/true, static_cast<ProbeTag>(tags[i]),
                     /*extras_probes=*/0, snapshot->epoch, per_query_nanos);
    }
  }
  if (options_.slow_batch_micros > 0 && n > 0 &&
      micros >= options_.slow_batch_micros) {
    SlowQueryEntry entry;
    entry.is_batch = true;
    entry.source = pairs[0].first;
    entry.target = pairs[0].second;
    entry.num_queries = n;
    entry.epoch = snapshot->epoch;
    entry.micros = micros;
    entry.stats = stats;
    slow_log_.Record(entry);
  }
  return results;
}

std::vector<std::vector<NodeId>> QueryService::BatchSuccessorsImpl(
    const std::vector<NodeId>& nodes) const {
  Stopwatch timer;
  const SnapshotPtr::Pin snapshot(snapshot_);
  std::vector<std::vector<NodeId>> results;
  results.reserve(nodes.size());
  for (const NodeId u : nodes) results.push_back(snapshot->Successors(u));
  snapshot.Add(kSuccessorQueries, static_cast<int64_t>(nodes.size()));
  metrics_.RecordBatch(timer.ElapsedMicros());
  return results;
}

ServiceMetrics::View QueryService::Metrics() const {
  ServiceMetrics::View view = metrics_.Read();
  view.reach_queries = snapshot_.Sum(kReachQueries);
  view.successor_queries = snapshot_.Sum(kSuccessorQueries);
  std::shared_ptr<const ClosureSnapshot> snapshot = Snapshot();
  view.current_epoch = snapshot->epoch;
  view.inflight_batches = InflightBatches();
  view.snapshot_age_seconds = snapshot->AgeSeconds();
  view.snapshot_num_nodes = snapshot->NumNodes();
  view.snapshot_total_intervals = snapshot->closure.TotalIntervals();
  view.snapshot_overlay_nodes = snapshot->closure.OverlayNodeCount();
  view.snapshot_arena_bytes = snapshot->closure.ArenaByteSize();
  {
    std::lock_guard<std::mutex> lock(spare_->mutex);
    view.spare_arena_bytes = spare_->arena.CapacityBytes();
  }
  view.simd_level = static_cast<int>(ActiveSimdLevel());
  view.simd_level_name = SimdLevelName(ActiveSimdLevel());
  return view;
}

}  // namespace trel

#include "service/sharded_service.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "core/labeling.h"
#include "graph/partition.h"
#include "graph/topology.h"

namespace trel {

namespace {

int WordsFor(int64_t bits) { return static_cast<int>((bits + 63) / 64); }

inline bool RowsIntersect(const uint64_t* a, const uint64_t* b, int words) {
  for (int i = 0; i < words; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

// Upper bound on trace records emitted per sampled batch (mirrors the
// monolithic service).
constexpr int64_t kMaxBatchTraceRecords = 32;

// Rollup series layout for the sharded front end: the four pipeline
// stages first (indexed by QueryStage), then the end-to-end series,
// then one series per shard (see ShardedQueryService::rollup()).
constexpr int kRollupSingleSeries = kNumQueryStages;
constexpr int kRollupBatchSeries = kNumQueryStages + 1;
constexpr int kRollupShardBase = kNumQueryStages + 2;

std::vector<std::string> RollupSeriesNames(int num_shards) {
  std::vector<std::string> names;
  names.reserve(kRollupShardBase + num_shards);
  for (int s = 0; s < kNumQueryStages; ++s) {
    names.emplace_back(QueryStageName(static_cast<QueryStage>(s)));
  }
  names.emplace_back("single");
  names.emplace_back("batch");
  for (int s = 0; s < num_shards; ++s) {
    names.push_back("shard" + std::to_string(s));
  }
  return names;
}

}  // namespace

std::string ShardedMetricsView::ToString() const {
  return "shards=" + std::to_string(num_shards) +
         " epoch=" + std::to_string(epoch) +
         " nodes=" + std::to_string(num_nodes) +
         " hubs=" + std::to_string(num_hubs) +
         " boundary_label_bytes=" + std::to_string(boundary_label_bytes) +
         " cross_shard_queries=" + std::to_string(cross_shard_queries) +
         " boundary_republishes=" + std::to_string(boundary_republishes) +
         " boundary_skips=" + std::to_string(boundary_skips) +
         " hub_promotions=" + std::to_string(hub_promotions);
}

// --- AppendArray -----------------------------------------------------------

void ShardedQueryService::AppendArray::Reset() {
  chunks_.clear();
  size_ = 0;
}

void ShardedQueryService::AppendArray::Append(int32_t value) {
  const int64_t c = size_ / kRowsPerChunk;
  if (c == static_cast<int64_t>(chunks_.size())) {
    auto chunk = std::make_shared<RoutingChunk>();
    chunk->data.assign(kRowsPerChunk, 0);
    chunks_.push_back(std::move(chunk));
  }
  chunks_[c]->data[size_ % kRowsPerChunk] = value;
  ++size_;
}

int32_t ShardedQueryService::AppendArray::At(int64_t i) const {
  return chunks_[i / kRowsPerChunk]->data[i % kRowsPerChunk];
}

// --- HubBits ---------------------------------------------------------------

void ShardedQueryService::HubBits::Reset(int words_per_row) {
  words_ = words_per_row;
  rows_ = 0;
  chunks_.clear();
  shared_.clear();
  dirty_ = true;
}

void ShardedQueryService::HubBits::AppendRow(const uint64_t* src) {
  const int64_t c = rows_ / kRowsPerChunk;
  if (c == static_cast<int64_t>(chunks_.size())) {
    auto chunk = std::make_shared<BitsChunk>();
    chunk->words.assign(static_cast<size_t>(kRowsPerChunk) * words_, 0);
    chunks_.push_back(std::move(chunk));
    shared_.push_back(0);
  }
  if (words_ > 0) {
    uint64_t* dst =
        chunks_[c]->words.data() + (rows_ % kRowsPerChunk) * words_;
    if (src != nullptr) {
      std::memcpy(dst, src, static_cast<size_t>(words_) * sizeof(uint64_t));
    } else {
      std::memset(dst, 0, static_cast<size_t>(words_) * sizeof(uint64_t));
    }
  }
  ++rows_;
}

const uint64_t* ShardedQueryService::HubBits::Row(int64_t r) const {
  return chunks_[r / kRowsPerChunk]->words.data() +
         (r % kRowsPerChunk) * words_;
}

uint64_t* ShardedQueryService::HubBits::MutableRow(int64_t r) {
  const int64_t c = r / kRowsPerChunk;
  if (shared_[c]) {
    // The chunk is referenced by a published snapshot: clone before the
    // first post-publish write so readers keep an immutable view.
    chunks_[c] = std::make_shared<BitsChunk>(*chunks_[c]);
    shared_[c] = 0;
  }
  dirty_ = true;
  return chunks_[c]->words.data() + (r % kRowsPerChunk) * words_;
}

void ShardedQueryService::HubBits::GrowWords(int new_words) {
  TREL_CHECK_GT(new_words, words_);
  std::vector<std::shared_ptr<BitsChunk>> old = std::move(chunks_);
  const int old_words = words_;
  words_ = new_words;
  chunks_.clear();
  chunks_.reserve(old.size());
  for (size_t c = 0; c < old.size(); ++c) {
    auto chunk = std::make_shared<BitsChunk>();
    chunk->words.assign(static_cast<size_t>(kRowsPerChunk) * words_, 0);
    const int64_t base = static_cast<int64_t>(c) * kRowsPerChunk;
    const int64_t limit = std::min<int64_t>(kRowsPerChunk, rows_ - base);
    for (int64_t r = 0; r < limit; ++r) {
      std::memcpy(chunk->words.data() + r * words_,
                  old[c]->words.data() + r * old_words,
                  static_cast<size_t>(old_words) * sizeof(uint64_t));
    }
    chunks_.push_back(std::move(chunk));
  }
  shared_.assign(chunks_.size(), 0);
  dirty_ = true;
}

void ShardedQueryService::HubBits::MarkAllShared() {
  shared_.assign(chunks_.size(), 1);
}

// --- Root ------------------------------------------------------------------

const uint64_t* ShardedQueryService::Root::OutRow(int64_t r) const {
  return out_chunks[r / kRowsPerChunk]->words.data() +
         (r % kRowsPerChunk) * words;
}

const uint64_t* ShardedQueryService::Root::InRow(int64_t r) const {
  return in_chunks[r / kRowsPerChunk]->words.data() +
         (r % kRowsPerChunk) * words;
}

int32_t ShardedQueryService::Root::ShardOfAt(int64_t r) const {
  return shard_chunks[r / kRowsPerChunk]->data[r % kRowsPerChunk];
}

int32_t ShardedQueryService::Root::LocalIdAt(int64_t r) const {
  return local_chunks[r / kRowsPerChunk]->data[r % kRowsPerChunk];
}

// --- ShardedQueryService ---------------------------------------------------

ShardedQueryService::ShardedQueryService(const ShardedServiceOptions& options)
    : options_(options),
      rollup_(RollupSeriesNames(options.num_shards)),
      flight_(options.flight) {
  TREL_CHECK_GE(options_.num_shards, 1);
  const uint32_t env_period = QueryTracer::PeriodFromEnv();
  tracer_.SetSamplePeriod(env_period != 0 ? env_period
                                          : options_.trace_sample_period);
  flight_.Attach(&rollup_, [this](FlightCapture* capture) {
    capture->traces = tracer_.Drain();
    // The front end has no publish pipeline of its own; the capture
    // carries every shard's recent spans instead (epochs disambiguate).
    for (const auto& shard : shards_) {
      const std::vector<PublishSpan> spans = shard->span_log().Recent();
      capture->spans.insert(capture->spans.end(), spans.begin(), spans.end());
    }
    capture->slow = slow_log_.Recent();
    capture->metrics = MetricsView().ToString();
  });
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<QueryService>(options_.shard));
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  out_bits_.Reset(0);
  in_bits_.Reset(0);
  PublishRootLocked();  // Empty root at epoch 0.
}

ShardedQueryService::~ShardedQueryService() = default;

Status ShardedQueryService::Load(const Digraph& graph) {
  PartitionOptions popts;
  popts.num_shards = num_shards();
  StatusOr<Partition> part = PartitionDag(graph, popts);
  TREL_RETURN_IF_ERROR(part.status());

  // Local ids within a shard follow ascending global id, so a replayed
  // update stream produces the same local sequences deterministically.
  const NodeId n = graph.NumNodes();
  const int k = num_shards();
  std::vector<NodeId> local(n);
  std::vector<NodeId> counts(k, 0);
  for (NodeId v = 0; v < n; ++v) local[v] = counts[part->shard_of[v]]++;
  std::vector<Digraph> subs;
  subs.reserve(k);
  for (int s = 0; s < k; ++s) subs.emplace_back(counts[s]);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      if (part->shard_of[u] == part->shard_of[v]) {
        TREL_CHECK(subs[part->shard_of[u]].AddArc(local[u], local[v]).ok());
      }
    }
  }
  // Shards load one at a time, so a shard that fails after an earlier one
  // loaded would leave that shard on the new graph and the boundary on
  // the old one.  The one failure that depends on a shard's size is its
  // numbering passing the 32-bit labels; rule it out for every shard
  // first, so a failed Load leaves the previous graph intact.
  const LabelingOptions& labeling = options_.shard.closure.labeling;
  for (int s = 0; s < k; ++s) {
    if (!CompactNumberingFits(counts[s], labeling.gap, labeling.reserve)) {
      return ResourceExhaustedError(
          "shard " + std::to_string(s) + ": numbering " +
          std::to_string(counts[s]) + " nodes at gap " +
          std::to_string(labeling.gap) + " passes the 32-bit label limit");
    }
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  for (int s = 0; s < k; ++s) {
    TREL_RETURN_IF_ERROR(shards_[s]->Load(subs[s]));
  }
  mirror_ = graph;
  shard_of_.Reset();
  local_id_.Reset();
  for (NodeId v = 0; v < n; ++v) {
    shard_of_.Append(part->shard_of[v]);
    local_id_.Append(local[v]);
  }
  is_hub_.assign(n, 0);
  hub_bit_of_.assign(n, -1);
  hub_at_bit_.clear();
  for (NodeId h : part->hubs) {
    hub_bit_of_[h] = static_cast<int32_t>(hub_at_bit_.size());
    is_hub_[h] = 1;
    hub_at_bit_.push_back(h);
  }
  RebuildBitsLocked();
  // A fresh load is a new lineage: force a full boundary republish.
  published_nodes_ = -1;
  published_words_ = -1;
  published_hubs_ = -1;
  epoch_.fetch_add(1, std::memory_order_relaxed);
  PublishRootLocked();
  return Status::Ok();
}

StatusOr<NodeId> ShardedQueryService::AddLeafUnder(NodeId parent) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (parent != kNoNode && !mirror_.IsValidNode(parent)) {
    return InvalidArgumentError("invalid parent " + std::to_string(parent));
  }
  const int s = parent == kNoNode ? 0 : shard_of_.At(parent);
  // A full shard numbering (ResourceExhausted) fails here, before any
  // boundary state is touched.
  const StatusOr<NodeId> local = shards_[s]->AddLeafUnder(
      parent == kNoNode ? kNoNode : local_id_.At(parent));
  TREL_RETURN_IF_ERROR(local.status());
  const NodeId global = mirror_.AddNode();
  if (parent != kNoNode) {
    TREL_CHECK(mirror_.AddArc(parent, global).ok());
  }
  shard_of_.Append(s);
  local_id_.Append(*local);
  is_hub_.push_back(0);
  hub_bit_of_.push_back(-1);
  AppendLeafBitsLocked(parent);
  return global;
}

Status ShardedQueryService::AddArc(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (!mirror_.IsValidNode(from) || !mirror_.IsValidNode(to)) {
    return InvalidArgumentError("invalid arc endpoint");
  }
  const auto cycle_error = [from, to] {
    return InvalidArgumentError("arc (" + std::to_string(from) + "," +
                                std::to_string(to) +
                                ") would create a cycle");
  };
  // A path back from `to` to `from` that touches a hub shows in the
  // working bitsets; one that does not stays inside one shard.
  if (from == to || WorkingBitsHitLocked(to, from)) return cycle_error();
  const int s = shard_of_.At(from);
  if (s == shard_of_.At(to)) {
    // Same-shard arc: the shard's live closure sees the hub-free paths.
    const NodeId lf = local_id_.At(from);
    const NodeId lt = local_id_.At(to);
    TREL_RETURN_IF_ERROR(shards_[s]->Apply([&](DynamicClosure& dyn) {
      if (dyn.Reaches(lt, lf)) return cycle_error();
      if (mirror_.HasArc(from, to)) {
        return AlreadyExistsError("arc (" + std::to_string(from) + "," +
                                  std::to_string(to) + ") already exists");
      }
      TREL_CHECK(dyn.AddArc(lf, lt).ok());
      return Status::Ok();
    }));
    TREL_CHECK(mirror_.AddArc(from, to).ok());
  } else {
    // Cross-shard arc: never enters a shard closure; lives in the mirror
    // and the boundary bitsets only.  The hub-cover invariant is
    // restored by promoting an endpoint when neither is a hub yet.
    TREL_RETURN_IF_ERROR(mirror_.AddArc(from, to));  // AlreadyExists on dups.
    if (!is_hub_[from] && !is_hub_[to]) {
      const int df = mirror_.OutDegree(from) + mirror_.InDegree(from);
      const int dt = mirror_.OutDegree(to) + mirror_.InDegree(to);
      PromoteHubLocked(df > dt || (df == dt && from < to) ? from : to);
    }
  }
  ApplyArcBitsLocked(from, to);
  return Status::Ok();
}

Status ShardedQueryService::RemoveArc(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (!mirror_.IsValidNode(from) || !mirror_.IsValidNode(to)) {
    return InvalidArgumentError("invalid arc endpoint");
  }
  if (!mirror_.HasArc(from, to)) {
    return NotFoundError("arc (" + std::to_string(from) + "," +
                         std::to_string(to) + ") not in graph");
  }
  const int s = shard_of_.At(from);
  if (s == shard_of_.At(to)) {
    TREL_CHECK(
        shards_[s]->RemoveArc(local_id_.At(from), local_id_.At(to)).ok());
  }
  TREL_CHECK(mirror_.RemoveArc(from, to).ok());
  RebuildBitsLocked();
  return Status::Ok();
}

uint64_t ShardedQueryService::Publish() { return PublishShards(-1); }

uint64_t ShardedQueryService::PublishShard(int shard) {
  TREL_CHECK_GE(shard, 0);
  TREL_CHECK_LT(shard, num_shards());
  return PublishShards(shard);
}

uint64_t ShardedQueryService::PublishShards(int only) {
  const int64_t start = LatencyRollup::MonotonicNanos();
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    for (int s = 0; s < num_shards(); ++s) {
      if (only < 0 || s == only) shards_[s]->Publish();
    }
    epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    PublishRootLocked();
  }
  last_publish_micros_.store((LatencyRollup::MonotonicNanos() - start) / 1000,
                             std::memory_order_relaxed);
  last_publish_epoch_.store(epoch, std::memory_order_relaxed);
  has_publish_.store(true, std::memory_order_relaxed);
  CheckFlightRecorder();
  return epoch;
}

bool ShardedQueryService::CheckFlightRecorder() const {
  FlightRecorder::Inputs inputs;
  inputs.boundary_republishes =
      boundary_republishes_.load(std::memory_order_relaxed);
  inputs.has_publish = has_publish_.load(std::memory_order_relaxed);
  inputs.last_publish_micros =
      last_publish_micros_.load(std::memory_order_relaxed);
  inputs.last_publish_epoch =
      last_publish_epoch_.load(std::memory_order_relaxed);
  return flight_.Check(inputs);
}

template <typename Routed>
inline int ShardedQueryService::SettlePair(const Root& r, NodeId u, NodeId v,
                                           RouteInfo* route,
                                           const Routed& routed) {
  // Snapshot semantics: ids the published root has never heard of reach
  // nothing (matches ClosureSnapshot).
  if (u < 0 || v < 0 || u >= r.num_nodes || v >= r.num_nodes) return 0;
  if (u == v) return 1;
  route->su = r.ShardOfAt(u);
  route->sv = r.ShardOfAt(v);
  routed();
  // A hub on some u -> v path sits in both rows; a path without one stays
  // inside one shard, whose own index sees it.
  route->tag = ProbeTag::kBoundaryBitset;
  if (r.words > 0 && RowsIntersect(r.OutRow(u), r.InRow(v), r.words)) {
    return 1;
  }
  if (route->su != route->sv) return 0;
  route->shard = route->su;
  route->tag = ProbeTag::kFallback;
  return -1;
}

template <bool kTimed>
bool ShardedQueryService::ReachesCore(const RootPtr::Pin& root, NodeId u,
                                      NodeId v, RouteInfo* route,
                                      StageTrace* stages) const {
  const Root& r = *root;
  int64_t mark = 0;
  if constexpr (kTimed) mark = LatencyRollup::MonotonicNanos();
  // Attributes the nanos since `mark` to `stage`; a no-op (and no clock
  // read) on the untimed path.
  const auto close_stage = [&](QueryStage stage) {
    if constexpr (kTimed) {
      const int64_t now = LatencyRollup::MonotonicNanos();
      stages->stage_nanos[static_cast<int>(stage)] +=
          static_cast<uint32_t>(now - mark);
      mark = now;
    }
  };

  // kRoute: bounds, self and per-endpoint shards; kBoundaryBitset: the
  // hub out-row x in-row intersection.
  const int settled = SettlePair(r, u, v, route, [&] {
    if (route->su != route->sv) root.Add(kCrossShardQueries);
    close_stage(QueryStage::kRoute);
  });
  if (settled >= 0) {
    close_stage(route->su < 0 ? QueryStage::kRoute
                              : QueryStage::kBoundaryBitset);
    return settled != 0;
  }
  close_stage(QueryStage::kBoundaryBitset);
  // kShardQuery: the owning shard's snapshot in the same root.
  const bool answer =
      r.shards[route->shard]->Reaches(r.LocalIdAt(u), r.LocalIdAt(v));
  close_stage(QueryStage::kShardQuery);
  return answer;
}

bool ShardedQueryService::Reaches(NodeId u, NodeId v) const {
  // Unsampled singles read no clock and record only into the pinned
  // slot's counters: the same tracing-off cost as the monolithic service.
  if (tracer_.ShouldSample()) return ReachesSampled(u, v);
  const RootPtr::Pin root(root_);
  RouteInfo route;
  return ReachesCore<false>(root, u, v, &route, nullptr);
}

bool ShardedQueryService::ReachesSampled(NodeId u, NodeId v) const {
  const RootPtr::Pin root(root_);
  RouteInfo route;
  StageTrace stages;
  const int64_t start = LatencyRollup::MonotonicNanos();
  const bool answer = ReachesCore<true>(root, u, v, &route, &stages);
  const int64_t nanos = LatencyRollup::MonotonicNanos() - start;
  stages.shard = route.shard;
  tracer_.Record(u, v, answer, /*from_batch=*/false, route.tag,
                 /*extras_probes=*/0, root->epoch,
                 static_cast<uint64_t>(nanos), &stages);
  for (int s = 0; s < kNumQueryStages; ++s) {
    if (stages.stage_nanos[s] > 0) rollup_.Record(s, stages.stage_nanos[s]);
  }
  rollup_.Record(kRollupSingleSeries, nanos);
  if (route.su >= 0) rollup_.Record(kRollupShardBase + route.su, nanos);
  if (options_.slow_query_micros > 0 &&
      nanos >= options_.slow_query_micros * 1000) {
    SlowQueryEntry entry;
    entry.is_batch = false;
    entry.source = u;
    entry.target = v;
    entry.answer = answer;
    entry.tag = route.tag;
    entry.epoch = root->epoch;
    entry.micros = nanos / 1000;
    entry.source_shard = route.su;
    entry.target_shard = route.sv;
    entry.cross_shard = route.su >= 0 && route.sv >= 0 && route.su != route.sv;
    slow_log_.Record(entry);
  }
  return answer;
}

std::vector<uint8_t> ShardedQueryService::BatchReaches(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
  // Batches are always stage-timed: a handful of clock reads per batch
  // (never per pair) amortize to nothing against the kernel work.
  const int64_t t_start = LatencyRollup::MonotonicNanos();
  const RootPtr::Pin root(root_);
  const int64_t n = static_cast<int64_t>(pairs.size());
  const bool sampled = n > 0 && tracer_.ShouldSample();
  std::vector<uint8_t> results(pairs.size(), 0);
  // Per-pair decision tags, tracked only for sampled batches.
  std::vector<uint8_t> tags;
  if (sampled) {
    tags.assign(pairs.size(), static_cast<uint8_t>(ProbeTag::kSlot));
  }
  // Pairs the bitset layer cannot settle (same shard, no hub witness)
  // are deferred per shard and run through the SIMD batch kernels of
  // the root's snapshot of that shard, in one call each.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> deferred(
      shards_.size());
  std::vector<std::vector<int64_t>> deferred_idx(shards_.size());
  int64_t cross = 0;
  int32_t first_su = -1;
  int32_t first_sv = -1;
  // Everything up to here (snapshot load + allocations) is kRoute.
  const int64_t t_setup = LatencyRollup::MonotonicNanos();
  for (int64_t i = 0; i < n; ++i) {
    const NodeId u = pairs[i].first;
    const NodeId v = pairs[i].second;
    RouteInfo route;
    const int settled = SettlePair(*root, u, v, &route, [] {});
    if (route.su != route.sv) ++cross;
    if (i == 0) {
      first_su = route.su;
      first_sv = route.sv;
    }
    if (sampled) tags[i] = static_cast<uint8_t>(route.tag);
    if (settled >= 0) {
      results[i] = static_cast<uint8_t>(settled);
      continue;
    }
    deferred[route.shard].emplace_back(root->LocalIdAt(u),
                                       root->LocalIdAt(v));
    deferred_idx[route.shard].push_back(i);
  }
  if (cross > 0) root.Add(kCrossShardQueries, cross);
  // The settle loop is the boundary-bitset stage.
  const int64_t t_settle = LatencyRollup::MonotonicNanos();
  int64_t shard_nanos = 0;
  int64_t merge_nanos = 0;
  std::vector<uint8_t> local;
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    if (deferred[s].empty()) continue;
    const int64_t t0 = LatencyRollup::MonotonicNanos();
    local.resize(deferred[s].size());
    root->shards[s]->BatchReaches(deferred[s].data(),
                                  static_cast<int64_t>(deferred[s].size()),
                                  local.data(), /*stats=*/nullptr);
    const int64_t t1 = LatencyRollup::MonotonicNanos();
    for (size_t j = 0; j < local.size(); ++j) {
      results[deferred_idx[s][j]] = local[j];
    }
    shard_nanos += t1 - t0;
    merge_nanos += LatencyRollup::MonotonicNanos() - t1;
  }

  // Stage totals feed the per-stage windows; the end-to-end total feeds
  // the "batch" series.
  int64_t stage_total[kNumQueryStages] = {};
  stage_total[static_cast<int>(QueryStage::kRoute)] = t_setup - t_start;
  stage_total[static_cast<int>(QueryStage::kBoundaryBitset)] =
      t_settle - t_setup;
  stage_total[static_cast<int>(QueryStage::kShardQuery)] = shard_nanos;
  stage_total[static_cast<int>(QueryStage::kMerge)] = merge_nanos;
  for (int s = 0; s < kNumQueryStages; ++s) {
    if (stage_total[s] > 0) rollup_.Record(s, stage_total[s]);
  }
  const int64_t total_nanos = LatencyRollup::MonotonicNanos() - t_start;
  rollup_.Record(kRollupBatchSeries, total_nanos);

  if (sampled) {
    // A bounded, evenly spaced selection of per-query outcomes, each
    // carrying the batch's per-query average stage split.
    const uint64_t per_query_nanos =
        static_cast<uint64_t>(total_nanos) / static_cast<uint64_t>(n);
    StageTrace rec_stages;
    for (int s = 0; s < kNumQueryStages; ++s) {
      rec_stages.stage_nanos[s] =
          static_cast<uint32_t>(stage_total[s] / n);
    }
    const int64_t stride = std::max<int64_t>(1, n / kMaxBatchTraceRecords);
    for (int64_t i = 0; i < n; i += stride) {
      const ProbeTag tag = static_cast<ProbeTag>(tags[i]);
      StageTrace st = rec_stages;
      if (tag == ProbeTag::kFallback) {
        st.shard = root->ShardOfAt(pairs[i].first);
      }
      tracer_.Record(pairs[i].first, pairs[i].second, results[i] != 0,
                     /*from_batch=*/true, tag, /*extras_probes=*/0,
                     root->epoch, per_query_nanos, &st);
    }
  }
  if (options_.slow_batch_micros > 0 && n > 0 &&
      total_nanos / 1000 >= options_.slow_batch_micros) {
    SlowQueryEntry entry;
    entry.is_batch = true;
    entry.source = pairs[0].first;
    entry.target = pairs[0].second;
    entry.num_queries = n;
    entry.epoch = root->epoch;
    entry.micros = total_nanos / 1000;
    entry.source_shard = first_su;
    entry.target_shard = first_sv;
    entry.cross_shard = first_su >= 0 && first_sv >= 0 && first_su != first_sv;
    slow_log_.Record(entry);
  }
  return results;
}

std::vector<NodeId> ShardedQueryService::Successors(NodeId u) const {
  const RootPtr::Pin root(root_);
  std::vector<NodeId> out;
  if (u < 0 || u >= root->num_nodes) return out;
  const int su = root->ShardOfAt(u);
  std::vector<std::pair<NodeId, NodeId>> local_pairs;
  std::vector<NodeId> local_global;
  for (int64_t i = 0; i < root->num_nodes; ++i) {
    const NodeId v = static_cast<NodeId>(i);
    if (v == u) continue;
    RouteInfo route;
    const int settled = SettlePair(*root, u, v, &route, [] {});
    if (settled > 0) {
      out.push_back(v);
    } else if (settled < 0) {
      // Deferred pairs share u, so they are all shard su's.
      local_pairs.emplace_back(root->LocalIdAt(u), root->LocalIdAt(v));
      local_global.push_back(v);
    }
  }
  std::vector<uint8_t> hits(local_pairs.size());
  root->shards[su]->BatchReaches(local_pairs.data(),
                                 static_cast<int64_t>(local_pairs.size()),
                                 hits.data(), /*stats=*/nullptr);
  for (size_t j = 0; j < hits.size(); ++j) {
    if (hits[j]) out.push_back(local_global[j]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int ShardedQueryService::ShardOf(NodeId node) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (node < 0 || node >= shard_of_.size()) return -1;
  return shard_of_.At(node);
}

ShardedMetricsView ShardedQueryService::MetricsView() const {
  const std::shared_ptr<const Root> root = root_.Load();
  ShardedMetricsView view;
  view.num_shards = num_shards();
  view.epoch = epoch_.load(std::memory_order_relaxed);
  view.num_nodes = root->num_nodes;
  view.num_hubs = root->num_hubs;
  view.boundary_label_bytes = root->label_bytes;
  view.cross_shard_queries = root_.Sum(kCrossShardQueries);
  view.boundary_republishes =
      boundary_republishes_.load(std::memory_order_relaxed);
  view.boundary_skips = boundary_skips_.load(std::memory_order_relaxed);
  view.hub_promotions = hub_promotions_.load(std::memory_order_relaxed);
  return view;
}

// --- Writer-side boundary maintenance --------------------------------------

bool ShardedQueryService::WorkingBitsHitLocked(NodeId a, NodeId b) const {
  const int words = out_bits_.words();
  if (words == 0) return false;
  return RowsIntersect(out_bits_.Row(a), in_bits_.Row(b), words);
}

bool ShardedQueryService::OrRowChangedLocked(
    HubBits& bits, NodeId row, const std::vector<uint64_t>& src) {
  const int words = bits.words();
  const uint64_t* cur = bits.Row(row);
  bool changed = false;
  for (int i = 0; i < words; ++i) {
    if (src[i] & ~cur[i]) {
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  uint64_t* dst = bits.MutableRow(row);
  for (int i = 0; i < words; ++i) dst[i] |= src[i];
  return true;
}

void ShardedQueryService::PropagateRowsLocked(
    HubBits& bits, NodeId start, bool backward,
    const std::vector<uint64_t>& src) {
  if (bits.words() == 0) return;
  // Monotone worklist with subsumption early-stop: the invariant
  // "predecessor rows are supersets along every arc" means an unchanged
  // node's frontier is already settled.
  std::vector<NodeId> stack = {start};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    if (!OrRowChangedLocked(bits, x, src)) continue;
    const std::vector<NodeId>& next =
        backward ? mirror_.InNeighbors(x) : mirror_.OutNeighbors(x);
    for (NodeId y : next) stack.push_back(y);
  }
}

void ShardedQueryService::ApplyArcBitsLocked(NodeId from, NodeId to) {
  if (out_bits_.words() == 0) return;
  // New arc from->to: every ancestor of `from` now reaches whatever hubs
  // `to` reaches, and every descendant of `to` is now reached by the
  // hubs reaching `from`.  Copy the source rows first — propagation may
  // relocate chunks.
  const uint64_t* out_row = out_bits_.Row(to);
  const std::vector<uint64_t> out_src(out_row, out_row + out_bits_.words());
  const uint64_t* in_row = in_bits_.Row(from);
  const std::vector<uint64_t> in_src(in_row, in_row + in_bits_.words());
  PropagateRowsLocked(out_bits_, from, /*backward=*/true, out_src);
  PropagateRowsLocked(in_bits_, to, /*backward=*/false, in_src);
}

void ShardedQueryService::AppendLeafBitsLocked(NodeId parent) {
  out_bits_.AppendRow(nullptr);  // A fresh leaf reaches no hubs.
  in_bits_.AppendRow(parent == kNoNode ? nullptr : in_bits_.Row(parent));
}

void ShardedQueryService::PromoteHubLocked(NodeId node) {
  const int bit = static_cast<int>(hub_at_bit_.size());
  hub_at_bit_.push_back(node);
  hub_bit_of_[node] = bit;
  is_hub_[node] = 1;
  const int need = WordsFor(static_cast<int64_t>(hub_at_bit_.size()));
  if (need > out_bits_.words()) {
    out_bits_.GrowWords(need);
    in_bits_.GrowWords(need);
  }
  // Reflexive bit on the hub itself, then into every ancestor's out set
  // and every descendant's in set.
  std::vector<uint64_t> src(out_bits_.words(), 0);
  src[bit / 64] = uint64_t{1} << (bit % 64);
  PropagateRowsLocked(out_bits_, node, /*backward=*/true, src);
  PropagateRowsLocked(in_bits_, node, /*backward=*/false, src);
  hub_promotions_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedQueryService::RebuildBitsLocked() {
  const int words = WordsFor(static_cast<int64_t>(hub_at_bit_.size()));
  const NodeId n = mirror_.NumNodes();
  out_bits_.Reset(words);
  in_bits_.Reset(words);
  for (NodeId v = 0; v < n; ++v) {
    out_bits_.AppendRow(nullptr);
    in_bits_.AppendRow(nullptr);
  }
  if (words == 0) return;
  StatusOr<std::vector<NodeId>> topo = TopologicalOrder(mirror_);
  TREL_CHECK(topo.ok()) << "mirror must stay acyclic";
  for (int64_t i = n - 1; i >= 0; --i) {
    const NodeId x = (*topo)[i];
    uint64_t* row = out_bits_.MutableRow(x);
    if (is_hub_[x]) {
      row[hub_bit_of_[x] / 64] |= uint64_t{1} << (hub_bit_of_[x] % 64);
    }
    for (NodeId y : mirror_.OutNeighbors(x)) {
      const uint64_t* src = out_bits_.Row(y);
      for (int w = 0; w < words; ++w) row[w] |= src[w];
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const NodeId x = (*topo)[i];
    uint64_t* row = in_bits_.MutableRow(x);
    if (is_hub_[x]) {
      row[hub_bit_of_[x] / 64] |= uint64_t{1} << (hub_bit_of_[x] % 64);
    }
    for (NodeId y : mirror_.InNeighbors(x)) {
      const uint64_t* src = in_bits_.Row(y);
      for (int w = 0; w < words; ++w) row[w] |= src[w];
    }
  }
}

void ShardedQueryService::PublishRootLocked() {
  // Free roots that readers still pinned at earlier swaps.
  root_.Reclaim();
  const int64_t n = mirror_.NumNodes();
  const int64_t hubs = static_cast<int64_t>(hub_at_bit_.size());
  // With no row changed, the writer's chunks are still the previous
  // root's, so the new root reuses them as they are.
  const bool changed = out_bits_.dirty() || in_bits_.dirty() ||
                       published_nodes_ != n ||
                       published_words_ != out_bits_.words() ||
                       published_hubs_ != hubs;
  (changed ? boundary_republishes_ : boundary_skips_)
      .fetch_add(1, std::memory_order_relaxed);
  auto root = std::make_shared<Root>();
  root->epoch = epoch_.load(std::memory_order_relaxed);
  root->num_nodes = n;
  root->words = out_bits_.words();
  root->out_chunks = out_bits_.chunks();
  root->in_chunks = in_bits_.chunks();
  root->shard_chunks = shard_of_.chunks();
  root->local_chunks = local_id_.chunks();
  root->num_hubs = hubs;
  root->label_bytes =
      2 * n * root->words * static_cast<int64_t>(sizeof(uint64_t));
  root->shards.reserve(shards_.size());
  for (const auto& shard : shards_) root->shards.push_back(shard->Snapshot());
  root_.Publish(std::move(root));
  out_bits_.MarkAllShared();
  out_bits_.ClearDirty();
  in_bits_.MarkAllShared();
  in_bits_.ClearDirty();
  published_nodes_ = n;
  published_words_ = out_bits_.words();
  published_hubs_ = hubs;
}

}  // namespace trel

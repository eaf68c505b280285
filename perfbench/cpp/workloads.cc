// The three closed-loop workloads and the traced run's per-layer probes.
//
// Every workload has the same phases, so every end-to-end metric is
// measured on every workload:
//   setup   Load(graph) on a fresh service, several times (setup_s).  Each
//           fresh index runs one slice of the read-only phases:
//             single  one reader thread on Reaches (read_1t_mqps);
//             batch   one caller issuing 4096-pair BatchReaches calls
//                     (batch_p50_us);
//             main    point_reads only: reader threads on Reaches
//                     (read_mqps).
//   probes  traced runs only: the per-layer probes on the last fresh index.
//   main    the mixed workloads: reader threads on Reaches (read_mqps)
//           while a writer applies the op sequence; the readers stop when
//           it finishes.
//   writes  point_reads applies its op sequence after the reads, with no
//           reader running, so its read phases stay writer-free.
// Reader threads and the writer are pinned to distinct CPUs.  Answers are
// checked outside the timed windows: a sample against DfsReaches on the
// benchmark's own copy of the graph, every batch against the single
// answers, and every reader pass against the hit counts the single answers
// predict.

#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>

#include "core/chain_propagator.h"
#include "core/dynamic_closure.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/reachability.h"
#include "service/query_service.h"
#include "service/sharded_service.h"
#include "spans.h"

namespace perfbench {
namespace {

using trel::ClosureSnapshot;
using trel::Digraph;
using trel::QueryService;
using trel::Random;
using trel::ShardedQueryService;

constexpr int kBatchPairs = 4096;
constexpr int kDistinctBatches = 64;
// BatchReaches calls per 10 s of --seconds, and in a tiny run.
constexpr int64_t kBatchCalls = 2000;
constexpr int64_t kTinyBatchCalls = 40;
constexpr int64_t kReaderListPairs = 1 << 16;
constexpr int kMaxThreads = 4;
// Batch pool of the traced run's pooled-batch probe: with the caller, four
// threads.
constexpr int kPoolWorkers = 3;
constexpr int kOpsPerRound = 8;
constexpr double kZipfS = 1.1;
// Share of --seconds for the one-thread reader, split over the setups.
constexpr double kSingleShare = 0.3;
constexpr int kWindowMs = 100;
constexpr int kWarmupWindows = 2;
constexpr int kGateways = 3;
constexpr double kCrossFraction = 0.08;
// Reader threads publish their call counts this often.
constexpr int kReadChunk = 1024;
// Traced readers: one span per block, one sampled per-call span per
// kSampleEvery calls, so clock reads stay rare next to ~0.1 us calls.
constexpr int kTraceBlock = 4096;
constexpr int kSampleEvery = 1024;
// Span thread slots: readers use 0..3, the writer 4, the main thread 5.
constexpr int kWriterSlot = 4;
constexpr int kMainSlot = 5;

enum class Shape { kRandom, kChained, kClustered };

struct Spec {
  std::string name;
  Shape shape = Shape::kRandom;
  int groups = 0;          // chains or clusters
  NodeId group_size = 0;   // chain length, cluster size, or kRandom's n
  double degree = 0.0;
  int num_shards = 1;      // 1 = QueryService, else ShardedQueryService
  int main_readers = 3;
  bool writer_beside_readers = true;
  // point_reads' writer only fills the write metrics, so its ops are kept
  // cheap and alike: arcs leave the first 2% of the topological order
  // (nodes with few ancestors), and each leaf hangs under a distinct
  // original node, so no label gap runs out and no renumber fires.
  bool quiet_writer = false;
  // Writer ops per 10 s of --seconds, scaled linearly; tiny runs use them
  // unscaled.
  int64_t ops = 0;
  bool tiny = false;
  // Share of --seconds for point_reads' main readers, split evenly over
  // the setups like kSingleShare.
  double main_share = 0.0;
  // Fresh loads per run; setup_s is their median.  Loads of one run vary
  // by ~15%, so the cheap ones are repeated more.
  int setups = 9;
  int64_t check_pairs = 1000;
};

Spec MakeSpec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "point_reads") {
    s.shape = Shape::kRandom;
    s.group_size = tiny ? 3000 : 50000;
    s.degree = 4.0;
    s.main_readers = 4;
    s.writer_beside_readers = false;
    s.quiet_writer = true;
    s.ops = 3072;
    s.main_share = 0.5;
    s.setups = 4;
  } else if (name == "update_mix") {
    s.shape = Shape::kChained;
    s.groups = tiny ? 10 : 50;
    s.group_size = tiny ? 300 : 1000;
    s.degree = 4.0;
    s.ops = 12800;
  } else if (name == "sharded_mix") {
    s.shape = Shape::kClustered;
    s.groups = tiny ? 8 : 16;
    s.group_size = tiny ? 400 : 3125;
    s.degree = 3.0;
    s.num_shards = 4;
    s.ops = 12800;
  } else {
    s.name.clear();
  }
  if (tiny) {
    s.tiny = true;
    // 40 publishes: the 33rd is a forced full one.
    s.ops = 320;
    s.setups = 2;
    s.check_pairs = 300;
  }
  return s;
}

Digraph MakeGraph(const Spec& s, uint64_t seed) {
  switch (s.shape) {
    case Shape::kRandom:
      return trel::RandomDag(s.group_size, s.degree, seed);
    case Shape::kChained:
      return trel::ChainedDag(s.groups, s.group_size, s.degree, seed);
    case Shape::kClustered:
      return trel::ClusteredDag(s.groups, s.group_size, s.degree, kGateways,
                                kCrossFraction, seed);
  }
  return Digraph();
}

// A new arc between loaded nodes, drawn the way the shape's generator
// draws its arcs: forward in the generator's topological order, so it
// closes no cycle, and absent from `graph`, so it is no duplicate.  The
// clustered shape leaves clusters through gateways, which the partitioner
// made hubs, so hub promotion stays rare.
Pair DrawArc(const Spec& s, NodeId n0, const Digraph& graph, Random& rng) {
  const auto uniform = [&rng](int64_t bound) {
    return static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(bound)));
  };
  for (;;) {
    NodeId a = 0;
    NodeId b = 0;
    if (s.shape == Shape::kRandom) {
      a = uniform(s.quiet_writer ? std::max<NodeId>(1, n0 / 50) : n0);
      b = uniform(n0);
      if (a >= b) continue;
    } else if (s.shape == Shape::kChained) {
      const int wa = static_cast<int>(uniform(s.groups));
      const int wb = static_cast<int>(uniform(s.groups));
      const NodeId ia = uniform(s.group_size);
      const NodeId ib = uniform(s.group_size);
      if (wa == wb || ia >= ib) continue;
      a = wa * s.group_size + ia;
      b = wb * s.group_size + ib;
    } else if (rng.Bernoulli(kCrossFraction)) {
      const int ca = static_cast<int>(uniform(s.groups));
      const int cb = static_cast<int>(uniform(s.groups));
      if (ca >= cb) continue;
      a = ca * s.group_size + s.group_size - 1 - uniform(kGateways);
      b = cb * s.group_size + uniform(s.group_size);
    } else {
      const NodeId base = uniform(s.groups) * s.group_size;
      const NodeId i = uniform(s.group_size);
      const NodeId j = uniform(s.group_size);
      if (i >= j) continue;
      a = base + i;
      b = base + j;
    }
    if (!graph.HasArc(a, b)) return {a, b};
  }
}

// One writer op.  Leaves: `a` is the parent and `b` the id the new node
// must get (ids are sequential).  Arcs: a -> b.
struct Op {
  bool leaf = false;
  NodeId a = 0;
  NodeId b = 0;
};

// One pair list per reader thread and one per batch, all drawn from one
// Zipf sampler over ids 0..n-1, as tools/loadgen's clients share one: every
// list has the same hot set, and the lists differ only by their rng stream.
struct PairLists {
  std::vector<PairList> readers;
  std::vector<PairList> batches;
};

PairLists DrawPairLists(NodeId n, uint64_t seed) {
  const ZipfSampler zipf(n, kZipfS, seed);
  const auto draw = [&](int stream, int64_t count) {
    Random rng(seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(stream + 1));
    return zipf.Pairs(count, rng);
  };
  PairLists out;
  for (int t = 0; t < kMaxThreads; ++t) out.readers.push_back(draw(t, kReaderListPairs));
  for (int b = 0; b < kDistinctBatches; ++b) {
    out.batches.push_back(draw(kMaxThreads + b, kBatchPairs));
  }
  return out;
}

struct Inputs {
  Digraph graph;        // as loaded
  Digraph final_graph;  // after every op
  NodeId n0 = 0;
  std::vector<PairList> reader_lists;
  PairList single_list;  // every reader list, for the one-thread phase
  std::vector<PairList> batches;
  std::vector<Op> ops;
  PairList check_initial;  // DFS-checked on `graph`
  PairList check_final;    // DFS-checked on `final_graph`
  uint64_t digest = 0;
};

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DigestPairs(uint64_t h, const PairList& pairs) {
  for (const Pair& p : pairs) h = Fnv(Fnv(h, p.first), p.second);
  return h;
}

int64_t Scaled(int64_t per_ten_seconds, double seconds) {
  return std::max<int64_t>(
      kOpsPerRound,
      static_cast<int64_t>(static_cast<double>(per_ten_seconds) * seconds / 10.0));
}

Inputs MakeInputs(const Spec& s, uint64_t seed, double seconds) {
  Inputs in;
  in.graph = MakeGraph(s, seed);
  in.n0 = in.graph.NumNodes();
  PairLists pairs = DrawPairLists(in.n0, seed);
  in.reader_lists = std::move(pairs.readers);
  in.batches = std::move(pairs.batches);
  for (const PairList& list : in.reader_lists) {
    in.single_list.insert(in.single_list.end(), list.begin(), list.end());
  }
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL);
  in.final_graph = in.graph;
  const int64_t num_ops =
      (s.tiny ? s.ops : Scaled(s.ops, seconds)) / kOpsPerRound * kOpsPerRound;
  // Quiet writers take leaf parents from a shuffle of the original ids.
  std::vector<NodeId> parents;
  if (s.quiet_writer) {
    parents.resize(static_cast<size_t>(in.n0));
    for (NodeId v = 0; v < in.n0; ++v) parents[static_cast<size_t>(v)] = v;
    for (NodeId v = in.n0 - 1; v > 0; --v) {
      std::swap(parents[static_cast<size_t>(v)],
                parents[rng.Uniform(static_cast<uint64_t>(v) + 1)]);
    }
  }
  size_t next_parent = 0;
  for (int64_t i = 0; i < num_ops; ++i) {
    Op op;
    if (i % 4 == 3) {
      const Pair arc = DrawArc(s, in.n0, in.final_graph, rng);
      op.a = arc.first;
      op.b = arc.second;
    } else {
      op.leaf = true;
      op.a = s.quiet_writer && next_parent < parents.size()
                 ? parents[next_parent++]
                 : static_cast<NodeId>(
                       rng.Uniform(static_cast<uint64_t>(in.final_graph.NumNodes())));
      op.b = in.final_graph.AddNode();
    }
    TREL_CHECK(in.final_graph.AddArc(op.a, op.b).ok());
    in.ops.push_back(op);
  }
  const auto sample_pair = [&] {
    const PairList& list = in.reader_lists[rng.Uniform(kMaxThreads)];
    return list[rng.Uniform(list.size())];
  };
  for (int64_t i = 0; i < s.check_pairs; ++i) {
    in.check_initial.push_back(sample_pair());
  }
  const NodeId leaves = in.final_graph.NumNodes() - in.n0;
  for (int64_t i = 0; i < s.check_pairs; ++i) {
    if (i % 2 == 0 || leaves == 0) {
      in.check_final.push_back(sample_pair());
    } else {
      // A Zipf-drawn source against a new leaf.
      in.check_final.emplace_back(
          sample_pair().first,
          in.n0 + static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(leaves))));
    }
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  h = DigestPairs(h, in.graph.Arcs());
  for (const PairList& list : in.reader_lists) h = DigestPairs(h, list);
  for (const PairList& batch : in.batches) h = DigestPairs(h, batch);
  for (const Op& op : in.ops) h = Fnv(Fnv(Fnv(h, op.leaf), op.a), op.b);
  in.digest = h;
  return in;
}

// ---- Tracing context ------------------------------------------------------

struct Tracing {
  explicit Tracing(SpanRecorder* r) : rec(r) {
    setup = r->Name("api.Load");
    reader_block = r->Name("reader.block");
    api_reaches = r->Name("api.Reaches");
    writer_round = r->Name("writer.round");
    add_leaf = r->Name("api.AddLeafUnder");
    add_arc = r->Name("api.AddArc");
    publish = r->Name("api.Publish");
    publish_shard = r->Name("api.PublishShard");
    for (int p = 0; p < trel::kNumPublishPhases; ++p) {
      phase[p] = r->Name(std::string("publish.") +
                         trel::PublishPhaseName(static_cast<trel::PublishPhase>(p)));
    }
    batch = r->Name("api.BatchReaches");
  }
  SpanRecorder* rec;
  uint32_t setup, reader_block, api_reaches, writer_round, add_leaf, add_arc,
      publish, publish_shard, batch;
  std::array<uint32_t, trel::kNumPublishPhases> phase{};
};

// ---- Per-service adapters -------------------------------------------------

std::vector<QueryService*> ShardServices(QueryService& svc) { return {&svc}; }
std::vector<QueryService*> ShardServices(ShardedQueryService& svc) {
  std::vector<QueryService*> out;
  for (int s = 0; s < svc.num_shards(); ++s) out.push_back(&svc.shard(s));
  return out;
}

trel::ServiceOptions MonoOptions() {
  trel::ServiceOptions o;
  o.num_workers = 0;  // batches run on the caller; see ProbePool
  // The trees/hop families are outside this benchmark; pin the interval
  // arena so the family selector cannot switch what is measured.
  o.index_family = trel::IndexFamilySetting::kForceIntervals;
  return o;
}

template <class Service>
std::unique_ptr<Service> MakeService(int num_shards) {
  if constexpr (std::is_same_v<Service, QueryService>) {
    (void)num_shards;
    return std::make_unique<QueryService>(MonoOptions());
  } else {
    trel::ShardedServiceOptions o;
    o.num_shards = num_shards;
    o.shard.index_family = trel::IndexFamilySetting::kForceIntervals;
    return std::make_unique<ShardedQueryService>(o);
  }
}

struct PublishCounts {
  int64_t publishes = 0, delta = 0, chain_full = 0, optimal_full = 0,
          delta_entries = 0;
};

template <class Service>
PublishCounts ReadPublishCounts(Service& svc) {
  PublishCounts c;
  for (QueryService* q : ShardServices(svc)) {
    const trel::ServiceMetrics::View v = q->Metrics();
    c.publishes += v.publishes;
    c.delta += v.publishes_delta;
    c.chain_full += v.publishes_chain_full;
    c.optimal_full += v.publishes_optimal_full;
    c.delta_entries += v.delta_nodes_total;
  }
  return c;
}

template <class Service>
trel::DynamicClosure::Stats ReadDynamicStats(Service& svc) {
  trel::DynamicClosure::Stats total;
  for (QueryService* q : ShardServices(svc)) {
    TREL_CHECK(q->Apply([&total](trel::DynamicClosure& d) {
                  total.renumbers += d.stats().renumbers;
                  total.reoptimizes += d.stats().reoptimizes;
                  total.propagation_node_visits +=
                      d.stats().propagation_node_visits;
                  return trel::Status::Ok();
                }).ok());
  }
  return total;
}

template <class Service>
double IndexBytesPerNode(Service& svc) {
  int64_t bytes = 0;
  int64_t nodes = 0;
  for (QueryService* q : ShardServices(svc)) {
    const trel::ServiceMetrics::View v = q->Metrics();
    bytes += v.snapshot_arena_bytes;
    nodes += v.snapshot_num_nodes;
  }
  if constexpr (std::is_same_v<Service, ShardedQueryService>) {
    const trel::ShardedMetricsView v = svc.MetricsView();
    bytes += v.boundary_label_bytes;
    nodes = v.num_nodes;
  }
  return nodes == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(nodes);
}

// Restarts the kernel's peak-RSS mark, so a traced run's peak does not
// include the untraced run before it.  Best effort: needs Linux >= 4.0.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak RSS since the last ResetPeakRss (VmHWM), else since process start.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- Correctness ----------------------------------------------------------

template <class Service>
std::vector<uint8_t> SingleAnswers(const Service& svc, const PairList& pairs) {
  std::vector<uint8_t> out(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    out[i] = svc.Reaches(pairs[i].first, pairs[i].second) ? 1 : 0;
  }
  return out;
}

int64_t Hits(const std::vector<uint8_t>& answers) {
  int64_t n = 0;
  for (uint8_t a : answers) n += a;
  return n;
}

// Hits per full pass over each list, from single answers.
template <class Service>
std::vector<int64_t> ExpectedHits(const Service& svc, const std::vector<PairList>& lists) {
  std::vector<int64_t> hits;
  for (const PairList& list : lists) hits.push_back(Hits(SingleAnswers(svc, list)));
  return hits;
}

// Mismatches between the service's single answers and DfsReaches.
template <class Service>
int64_t CheckAgainstDfs(const Service& svc, const Digraph& graph,
                        const PairList& sample, const char* what) {
  int64_t bad = 0;
  for (const Pair& p : sample) {
    const bool want = trel::DfsReaches(graph, p.first, p.second);
    if (svc.Reaches(p.first, p.second) != want) {
      if (bad < 5) {
        std::fprintf(stderr, "perfbench: WRONG %s answer Reaches(%d, %d) != %d\n",
                     what, p.first, p.second, want ? 1 : 0);
      }
      ++bad;
    }
  }
  return bad;
}

// ---- Read phase -----------------------------------------------------------

struct alignas(64) ReaderSlot {
  std::atomic<int64_t> calls{0};
};

struct ReadPhase {
  std::vector<double> window_mqps;  // after warm-up
  // Hits per full pass over each thread's pair list.
  std::vector<std::vector<int64_t>> pass_hits;
};

// Runs `threads` readers, started together, each cycling over its own pair
// list until `done(elapsed_s)` holds at a window boundary.  `on_start`
// runs right after the readers are released (it starts the writer).
template <bool kTraced, class Service>
ReadPhase RunReaders(const Service& svc, const std::vector<PairList>& lists,
                     int threads, const std::function<bool(double)>& done,
                     const std::function<void()>& on_start, Tracing* tr) {
  std::vector<ReaderSlot> slots(threads);
  ReadPhase out;
  out.pass_hits.resize(threads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      PinThread(t);
      const PairList& list = lists[t];
      const int64_t n = static_cast<int64_t>(list.size());
      std::vector<int64_t>& passes = out.pass_hits[t];
      passes.reserve(1 << 14);
      int64_t i = 0;
      int64_t hits = 0;
      int64_t calls = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        if constexpr (kTraced) {
          const uint64_t block = tr->rec->NewId();
          const int64_t block_start = NowNs();
          for (int k = 0; k < kTraceBlock; ++k) {
            const Pair& p = list[i];
            if (k % kSampleEvery == 0) {
              const int64_t s0 = NowNs();
              hits += svc.Reaches(p.first, p.second);
              tr->rec->Add(t, tr->api_reaches, block, block, s0, NowNs());
            } else {
              hits += svc.Reaches(p.first, p.second);
            }
            if (++i == n) {
              i = 0;
              passes.push_back(hits);
              hits = 0;
            }
          }
          tr->rec->Add(t, tr->reader_block, 0, block, block_start, NowNs(), block);
          calls += kTraceBlock;
        } else {
          for (int k = 0; k < kReadChunk; ++k) {
            const Pair& p = list[i];
            hits += svc.Reaches(p.first, p.second);
            if (++i == n) {
              i = 0;
              passes.push_back(hits);
              hits = 0;
            }
          }
          calls += kReadChunk;
        }
        slots[t].calls.store(calls, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load() < threads) {
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  if (on_start) on_start();
  int64_t prev_t = start;
  int64_t prev_c = 0;
  for (int w = 0;; ++w) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kWindowMs));
    const int64_t now = NowNs();
    int64_t c = 0;
    for (const ReaderSlot& s : slots) c += s.calls.load(std::memory_order_relaxed);
    if (w >= kWarmupWindows) {
      out.window_mqps.push_back(static_cast<double>(c - prev_c) * 1e3 /
                                static_cast<double>(now - prev_t));
    }
    prev_t = now;
    prev_c = c;
    // At least one window past the warm-up, so every phase has a rate.
    if (!out.window_mqps.empty() && done(static_cast<double>(now - start) / 1e9)) break;
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  return out;
}

// Counts passes whose hit count falls outside [lo[t], hi[t]]: with only
// arc and leaf additions, every answer lies between its value on the
// phase's first and last published state.
int64_t BadPasses(const ReadPhase& phase, const std::vector<int64_t>& lo,
                  const std::vector<int64_t>& hi, const char* what) {
  int64_t bad = 0;
  for (size_t t = 0; t < phase.pass_hits.size(); ++t) {
    for (int64_t h : phase.pass_hits[t]) {
      if (h < lo[t] || h > hi[t]) {
        if (bad < 5) {
          std::fprintf(stderr,
                       "perfbench: WRONG %s reader pass: %lld hits, want "
                       "[%lld, %lld]\n",
                       what, static_cast<long long>(h),
                       static_cast<long long>(lo[t]), static_cast<long long>(hi[t]));
        }
        ++bad;
      }
    }
  }
  return bad;
}

// ---- Writer ---------------------------------------------------------------

struct PublishRecord {
  double ms = 0.0;
  bool full = false;
  int shard = 0;
  trel::PublishSpan span;      // traced runs only
  int64_t overlay_nodes = 0;   // traced runs only
};

struct WriteLog {
  std::vector<double> leaf_us;
  std::vector<double> arc_us;
  std::vector<PublishRecord> publishes;
  int64_t failed = 0;
  // Traced runs: the last delta snapshot published by (shard) 0.
  std::shared_ptr<const ClosureSnapshot> last_delta;
};

template <bool kTraced, class Service>
WriteLog RunWriter(Service& svc, const std::vector<Op>& ops, Tracing* tr) {
  WriteLog log;
  log.leaf_us.reserve(ops.size());
  log.arc_us.reserve(ops.size());
  constexpr bool kSharded = std::is_same_v<Service, ShardedQueryService>;
  for (size_t begin = 0; begin < ops.size(); begin += kOpsPerRound) {
    const size_t end = std::min(ops.size(), begin + kOpsPerRound);
    uint64_t round = 0;
    int64_t round_start = 0;
    if constexpr (kTraced) {
      round = tr->rec->NewId();
      round_start = NowNs();
    }
    std::vector<uint8_t> dirty(ShardServices(svc).size(), 0);
    for (size_t i = begin; i < end; ++i) {
      const Op& op = ops[i];
      bool ok = false;
      const int64_t t0 = NowNs();
      if (op.leaf) {
        const trel::StatusOr<NodeId> id = svc.AddLeafUnder(op.a);
        const int64_t t1 = NowNs();
        ok = id.ok() && *id == op.b;
        log.leaf_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if constexpr (kTraced) tr->rec->Add(kWriterSlot, tr->add_leaf, round, round, t0, t1);
      } else {
        const trel::Status st = svc.AddArc(op.a, op.b);
        const int64_t t1 = NowNs();
        ok = st.ok();
        log.arc_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if constexpr (kTraced) tr->rec->Add(kWriterSlot, tr->add_arc, round, round, t0, t1);
      }
      if (!ok) {
        if (log.failed < 5) {
          std::fprintf(stderr, "perfbench: FAILED %s(%d, %d)\n",
                       op.leaf ? "AddLeafUnder" : "AddArc", op.a, op.b);
        }
        ++log.failed;
      }
      if constexpr (kSharded) {
        const int sa = svc.ShardOf(op.a);
        if (op.leaf || sa == svc.ShardOf(op.b)) dirty[static_cast<size_t>(sa)] = 1;
      }
    }
    if constexpr (!kSharded) dirty[0] = 1;
    for (size_t s = 0; s < dirty.size(); ++s) {
      if (dirty[s] == 0) continue;
      const int64_t t0 = NowNs();
      if constexpr (kSharded) {
        svc.PublishShard(static_cast<int>(s));
      } else {
        svc.Publish();
      }
      const int64_t t1 = NowNs();
      QueryService& shard = *ShardServices(svc)[s];
      const std::shared_ptr<const ClosureSnapshot> snap = shard.Snapshot();
      PublishRecord rec;
      rec.ms = static_cast<double>(t1 - t0) / 1e6;
      rec.full = !snap->delta_publish;
      rec.shard = static_cast<int>(s);
      if constexpr (kTraced) {
        rec.span = shard.span_log().Recent().back();
        rec.overlay_nodes = snap->closure.OverlayNodeCount();
        if (snap->delta_publish && s == 0) log.last_delta = snap;
        const uint64_t pub = tr->rec->Add(
            kWriterSlot, kSharded ? tr->publish_shard : tr->publish, round,
            round, t0, t1);
        // span_log() holds phase durations, not start times: lay the
        // phases out back to back from the publish start, in the order
        // PublishLocked runs them for the publish's strategy.  A full
        // publish's arena build runs inside its export; the log times the
        // two apart, so they are laid out one after the other.
        using P = trel::PublishPhase;
        static constexpr P kDeltaOrder[] = {P::kDrain, P::kExport, P::kSwap};
        static constexpr P kFullOrder[] = {P::kRebuild, P::kExport, P::kArenaBuild,
                                           P::kDrain,   P::kStats,  P::kSwap};
        const auto order = rec.full ? std::span<const P>(kFullOrder)
                                    : std::span<const P>(kDeltaOrder);
        int64_t at = t0;
        for (P p : order) {
          const int64_t us = rec.span.phase_micros[static_cast<int>(p)];
          if (us <= 0) continue;
          tr->rec->Add(kWriterSlot, tr->phase[static_cast<int>(p)], pub, round,
                       at, at + us * 1000);
          at += us * 1000;
        }
      }
      log.publishes.push_back(rec);
    }
    if constexpr (kTraced) {
      tr->rec->Add(kWriterSlot, tr->writer_round, 0, round, round_start, NowNs(),
                   round);
    }
  }
  return log;
}

// ---- Batch phase ----------------------------------------------------------

struct BatchPhase {
  std::vector<double> call_us;
  int64_t wrong = 0;
};

template <bool kTraced, class Service>
BatchPhase RunBatches(const Service& svc, const std::vector<PairList>& batches,
                      const std::vector<std::vector<uint8_t>>& expected,
                      int64_t calls, Tracing* tr) {
  BatchPhase out;
  out.call_us.reserve(static_cast<size_t>(calls));
  for (int64_t c = 0; c < calls; ++c) {
    const size_t b = static_cast<size_t>(c) % batches.size();
    const int64_t t0 = NowNs();
    const std::vector<uint8_t> got = svc.BatchReaches(batches[b]);
    const int64_t t1 = NowNs();
    out.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if constexpr (kTraced) {
      const uint64_t id = tr->rec->NewId();
      tr->rec->Add(kMainSlot, tr->batch, 0, id, t0, t1, id);
    }
    if (got != expected[b]) {
      for (size_t i = 0; i < got.size(); ++i) out.wrong += got[i] != expected[b][i];
      if (out.wrong > 0 && out.wrong < 5) {
        std::fprintf(stderr, "perfbench: WRONG batch answers in call %lld\n",
                     static_cast<long long>(c));
      }
    }
  }
  return out;
}

// ---- One run of a workload ------------------------------------------------

struct E2E {
  double setup_s = 0, read_mqps = 0, read_1t_mqps = 0, batch_p50_us = 0,
         update_p50_us = 0, update_p99_us = 0, publish_p50_ms = 0,
         publish_full_p50_ms = 0, index_bytes_per_node = 0, peak_rss_mb = 0;

  // The end-to-end set: the metrics that repeat from run to run.
  std::vector<Metric> AsMetrics() const {
    return {{"setup_s", setup_s, "s"},
            {"read_mqps", read_mqps, "Mq/s"},
            {"update_p50_us", update_p50_us, "us"},
            {"publish_full_p50_ms", publish_full_p50_ms, "ms"},
            {"index_bytes_per_node", index_bytes_per_node, "B/node"},
            {"peak_rss_mb", peak_rss_mb, "MB"}};
  }

  // Measured like the end-to-end set but spreading too widely from run to
  // run to gate on, so the traced run reports them per layer.
  std::vector<Metric> Ungated() const {
    return {{"service.read_1t_mqps", read_1t_mqps, "Mq/s"},
            {"service.batch_p50_us", batch_p50_us, "us"},
            {"service.update_p99_us", update_p99_us, "us"},
            {"service.publish_p50_ms", publish_p50_ms, "ms"}};
  }
};

template <class Service>
struct Run {
  std::unique_ptr<Service> svc;
  E2E e2e;
  WriteLog writes;
  PublishCounts publish_before, publish_after;
  trel::DynamicClosure::Stats dyn_before, dyn_after;
  trel::ShardedMetricsView sharded_before, sharded_after;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Sample counts behind the timings, for the summary line.
  int64_t setups = 0, windows = 0, windows_1t = 0, batch_calls = 0,
          updates = 0, publishes = 0, full_publishes = 0;
};

// `probe`, when set, runs on the fresh service before the first timed
// phase (the traced run's per-layer probes).
template <bool kTraced, class Service>
Run<Service> RunOnce(const Spec& spec, const Inputs& in, double seconds,
                     Tracing* tr, const std::function<void(Service&)>& probe) {
  constexpr bool kSharded = std::is_same_v<Service, ShardedQueryService>;
  Run<Service> run;
  ResetPeakRss();

  // Setup: Load(graph) on a fresh service, several times; the last one
  // serves the workload.  Each fresh index also runs one slice of the
  // read-only phases (the one-thread reader, the batches and, without a
  // writer beside them, the main readers).  Host slowdowns last seconds, so
  // spreading these phases over the whole setup period keeps one slow
  // stretch from deciding a run's figures.
  const int slices = spec.setups;
  const std::vector<PairList> one = {in.single_list};
  const int readers = spec.main_readers;
  const std::vector<PairList> lists(in.reader_lists.begin(),
                                    in.reader_lists.begin() + readers);
  const int64_t slice_calls = std::max<int64_t>(
      1, (spec.tiny ? kTinyBatchCalls : Scaled(kBatchCalls, seconds)) / slices);
  const auto until = [](double limit) {
    return [limit](double s) { return s >= limit; };
  };
  std::vector<double> setup_s, single_mqps, batch_us, main_mqps;
  std::vector<int64_t> hits_one, hits_main;
  std::vector<std::vector<uint8_t>> expected;
  for (int r = 0; r < spec.setups; ++r) {
    run.svc.reset();
    auto fresh = MakeService<Service>(spec.num_shards);
    const int64_t t0 = NowNs();
    const trel::Status st = fresh->Load(in.graph);
    const int64_t t1 = NowNs();
    if constexpr (kTraced) {
      const uint64_t id = tr->rec->NewId();
      tr->rec->Add(kMainSlot, tr->setup, 0, id, t0, t1, id);
    }
    TREL_CHECK(st.ok()) << st.ToString();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    run.svc = std::move(fresh);
    const Service& svc = *run.svc;
    if (r == 0) {
      // Every fresh index of the graph must give these same answers.
      run.failed += CheckAgainstDfs(svc, in.graph, in.check_initial, "initial");
      run.attempted += static_cast<int64_t>(in.check_initial.size());
      hits_one = ExpectedHits(svc, one);
      hits_main = ExpectedHits(svc, lists);
      for (const PairList& b : in.batches) expected.push_back(SingleAnswers(svc, b));
    }
    const ReadPhase single = RunReaders<kTraced>(
        svc, one, 1, until(kSingleShare * seconds / slices), nullptr, tr);
    run.failed += BadPasses(single, hits_one, hits_one, "single");
    single_mqps.insert(single_mqps.end(), single.window_mqps.begin(),
                       single.window_mqps.end());
    const BatchPhase batch = RunBatches<kTraced>(svc, in.batches, expected, slice_calls, tr);
    run.failed += batch.wrong;
    run.attempted += slice_calls * kBatchPairs;
    batch_us.insert(batch_us.end(), batch.call_us.begin(), batch.call_us.end());
    if (!spec.writer_beside_readers) {
      const ReadPhase main = RunReaders<kTraced>(
          svc, lists, readers, until(spec.main_share * seconds / slices), nullptr, tr);
      run.failed += BadPasses(main, hits_main, hits_main, "main");
      main_mqps.insert(main_mqps.end(), main.window_mqps.begin(), main.window_mqps.end());
    }
  }
  Service& svc = *run.svc;
  if (probe) probe(svc);

  run.publish_before = ReadPublishCounts(svc);
  run.dyn_before = ReadDynamicStats(svc);
  if constexpr (kSharded) run.sharded_before = svc.MetricsView();

  // Main phase with the writer beside the readers.
  if (spec.writer_beside_readers) {
    std::atomic<bool> writer_done{false};
    std::thread writer;
    const ReadPhase main = RunReaders<kTraced>(
        svc, lists, readers,
        [&writer_done](double) { return writer_done.load(); },
        [&] {
          writer = std::thread([&] {
            PinThread(kMaxThreads - 1);
            run.writes = RunWriter<kTraced>(svc, in.ops, tr);
            writer_done.store(true);
          });
        },
        tr);
    writer.join();
    run.failed += BadPasses(main, hits_main, ExpectedHits(svc, lists), "main");
    main_mqps = main.window_mqps;
  }
  run.e2e.setup_s = Median(setup_s);
  run.e2e.read_mqps = Median(main_mqps);
  run.e2e.read_1t_mqps = Median(single_mqps);
  run.e2e.batch_p50_us = Median(batch_us);
  run.setups = spec.setups;
  run.windows = static_cast<int64_t>(main_mqps.size());
  run.windows_1t = static_cast<int64_t>(single_mqps.size());
  run.batch_calls = static_cast<int64_t>(batch_us.size());

  // point_reads: the op sequence after the reads, with no reader running.
  if (!spec.writer_beside_readers) {
    run.writes = RunWriter<kTraced>(svc, in.ops, tr);
  }
  run.publish_after = ReadPublishCounts(svc);
  run.dyn_after = ReadDynamicStats(svc);
  if constexpr (kSharded) run.sharded_after = svc.MetricsView();
  run.failed += run.writes.failed;
  run.attempted += static_cast<int64_t>(in.ops.size());

  run.failed += CheckAgainstDfs(svc, in.final_graph, in.check_final, "final");
  run.attempted += static_cast<int64_t>(in.check_final.size());

  std::vector<double> updates = run.writes.leaf_us;
  updates.insert(updates.end(), run.writes.arc_us.begin(), run.writes.arc_us.end());
  std::vector<double> publish_ms;
  std::vector<double> full_ms;
  for (const PublishRecord& p : run.writes.publishes) {
    publish_ms.push_back(p.ms);
    if (p.full) full_ms.push_back(p.ms);
  }
  run.e2e.update_p50_us = Median(updates);
  run.e2e.update_p99_us = Quantile(updates, 0.99);
  run.e2e.publish_p50_ms = Median(publish_ms);
  run.e2e.publish_full_p50_ms = Median(full_ms);
  run.e2e.index_bytes_per_node = IndexBytesPerNode(svc);
  run.e2e.peak_rss_mb = PeakRssMb();
  run.updates = static_cast<int64_t>(updates.size());
  run.publishes = static_cast<int64_t>(publish_ms.size());
  run.full_publishes = static_cast<int64_t>(full_ms.size());
  return run;
}

// ---- Per-layer probes (traced run only) -----------------------------------

// Times `fn(pair)` over `pairs` for about `seconds`, in blocks of 4096
// calls; returns the median block's ns per call.
template <class Fn>
double NsPerCall(const PairList& pairs, double seconds, Fn&& fn) {
  std::vector<double> blocks;
  int64_t sink = 0;
  size_t i = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const int64_t t0 = NowNs();
    for (int k = 0; k < kTraceBlock; ++k) {
      sink += fn(pairs[i]);
      if (++i == pairs.size()) i = 0;
    }
    blocks.push_back(static_cast<double>(NowNs() - t0) / kTraceBlock);
  }
  if (sink == -1) std::fprintf(stderr, " ");
  return Median(blocks);
}

// `threads` copies of NsPerCall run together; returns the median per-call
// ns over every thread's blocks and the summed calls per second (Mq/s).
template <class Fn>
std::pair<double, double> NsPerCallThreads(const std::vector<PairList>& lists,
                                           int threads, double seconds, Fn fn) {
  std::vector<double> ns(threads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThread(t);
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      ns[t] = NsPerCall(lists[t], seconds, fn);
    });
  }
  for (std::thread& th : pool) th.join();
  double mqps = 0.0;
  for (double v : ns) mqps += v > 0 ? 1e3 / v : 0.0;
  return {Median(ns), mqps};
}

// Median wall time (us) of `fn()` over `reps` calls.
template <class Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(us);
}

struct Layers {
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Kernel, closure, snapshot and service probes on one freshly loaded
// QueryService (the workload's own, or shard 0 of the sharded one) with
// pairs in its ids.
void ProbeServiceLayers(QueryService& svc, const std::vector<PairList>& lists,
                        const std::vector<PairList>& batches, double probe_s,
                        Layers& out) {
  const std::shared_ptr<const ClosureSnapshot> snap = svc.Snapshot();
  const trel::CompressedClosure& closure = snap->closure;

  // Kernel: the pipelined batch kernel on the pinned closure.
  {
    trel::BatchKernelStats stats;
    int64_t pairs = 0;
    std::vector<double> ns;
    std::vector<uint8_t> out_buf(kBatchPairs);
    const int64_t end = NowNs() + static_cast<int64_t>(probe_s * 1e9);
    for (size_t b = 0; NowNs() < end; b = (b + 1) % batches.size()) {
      const int64_t t0 = NowNs();
      closure.BatchReaches(batches[b].data(), kBatchPairs, out_buf.data(), &stats);
      ns.push_back(static_cast<double>(NowNs() - t0) / kBatchPairs);
      pairs += kBatchPairs;
    }
    const double p = static_cast<double>(std::max<int64_t>(1, pairs));
    out.Add("kernel.batch_ns_per_pair", Median(ns), "ns");
    out.Add("kernel.fast_path_share", static_cast<double>(stats.fast_path) / p, "share");
    out.Add("kernel.filter_reject_share", static_cast<double>(stats.filter_rejects) / p, "share");
    out.Add("kernel.group_reject_share", static_cast<double>(stats.group_rejects) / p, "share");
    out.Add("kernel.extras_search_share", static_cast<double>(stats.extras_searches) / p, "share");
  }

  // Closure: single probes on the pinned closure.
  out.Add("closure.reaches_ns",
          NsPerCall(lists[0], probe_s,
                    [&closure](const Pair& p) { return closure.Reaches(p.first, p.second); }),
          "ns");
  // Snapshot: family routing plus the closure probe.
  out.Add("snapshot.reaches_ns",
          NsPerCall(lists[0], probe_s,
                    [&snap](const Pair& p) { return snap->Reaches(p.first, p.second); }),
          "ns");

  // Service: snapshot acquisition and Reaches through the API, at 1 and 4
  // threads; pinned snapshots at 4 threads are the ceiling.
  const auto acquire = [&svc](const Pair&) { return svc.Snapshot()->epoch != 0; };
  const auto reaches = [&svc](const Pair& p) { return svc.Reaches(p.first, p.second); };
  out.Add("service.acquire_ns", NsPerCall(lists[0], probe_s, acquire), "ns");
  out.Add("service.acquire_4t_ns",
          NsPerCallThreads(lists, kMaxThreads, probe_s, acquire).first, "ns");
  out.Add("service.reaches_ns", NsPerCall(lists[0], probe_s, reaches), "ns");
  out.Add("service.reaches_4t_ns",
          NsPerCallThreads(lists, kMaxThreads, probe_s, reaches).first, "ns");
  out.Add("service.pinned_4t_mqps",
          NsPerCallThreads(lists, kMaxThreads, probe_s,
                           [&snap](const Pair& p) { return snap->Reaches(p.first, p.second); })
              .second,
          "Mq/s");

  // Obs: the sampled tracer path at 1-in-64.
  svc.tracer().SetSamplePeriod(64);
  out.Add("obs.sampled_reaches_ns", NsPerCall(lists[0], probe_s, reaches), "ns");
  svc.tracer().SetSamplePeriod(0);
}

// CompressedClosure::Reaches on the last delta snapshot of the writer
// phase, split by whether a pair touches an overlay member.
void ProbeOverlay(const std::shared_ptr<const ClosureSnapshot>& delta,
                  const PairList& list, double probe_s, Layers& out) {
  PairList overlay_pairs;
  PairList base_pairs;
  double share = 0.0;
  if (delta != nullptr) {
    const trel::CompressedClosure& dc = delta->closure;
    std::vector<NodeId> members;
    for (NodeId v = 0; v < dc.NumNodes(); ++v) {
      if (dc.IsOverlayMember(v)) members.push_back(v);
    }
    int64_t touching = 0;
    for (const Pair& p : list) {
      const bool in_overlay = p.first < dc.NumNodes() && p.second < dc.NumNodes() &&
                              (dc.IsOverlayMember(p.first) || dc.IsOverlayMember(p.second));
      touching += in_overlay;
      if (!in_overlay) base_pairs.push_back(p);
    }
    share = static_cast<double>(touching) / static_cast<double>(list.size());
    // Overlay sources against the list's targets.
    Random rng(members.size());
    for (size_t i = 0; !members.empty() && i < list.size() / 4; ++i) {
      overlay_pairs.emplace_back(members[rng.Uniform(members.size())], list[i].second);
    }
  }
  const auto time_on = [&](const PairList& pairs) {
    if (delta == nullptr || pairs.empty()) return 0.0;
    const trel::CompressedClosure& dc = delta->closure;
    return NsPerCall(pairs, probe_s / 2,
                     [&dc](const Pair& p) { return dc.Reaches(p.first, p.second); });
  };
  out.Add("closure.overlay_reaches_ns", time_on(overlay_pairs), "ns");
  out.Add("closure.base_reaches_ns", time_on(base_pairs), "ns");
  out.Add("closure.overlay_read_share", share, "share");
}

// BatchReaches through a worker pool.  The workloads' own services run
// batches on the caller: a pooled batch's time hangs on how fast idle
// vCPUs wake, which swings it between about 1x and 3x the caller's time
// from run to run.  So a separate pooled service over the same graph
// measures it here, beside the same batches on its snapshot on the caller.
void ProbePool(const Digraph& graph, const std::vector<PairList>& batches,
               Layers& out) {
  trel::ServiceOptions o = MonoOptions();
  o.num_workers = kPoolWorkers;
  QueryService svc(o);
  TREL_CHECK(svc.Load(graph).ok());
  const std::shared_ptr<const ClosureSnapshot> snap = svc.Snapshot();
  const int reps = 400;
  size_t b = 0;
  const double pooled =
      MedianUs(reps, [&] { (void)svc.BatchReaches(batches[b++ % batches.size()]); });
  std::vector<uint8_t> buf(kBatchPairs);
  const double caller = MedianUs(reps, [&] {
    snap->BatchReaches(batches[b++ % batches.size()].data(), kBatchPairs, buf.data(),
                       nullptr);
  });
  out.Add("service.pool_batch_us", pooled, "us");
  out.Add("service.batch_fanout_us", pooled - caller, "us");
}

// Sharded front-end probes.  Every per-layer metric prints on every
// workload, so the K = 1 workloads get a one-shard service over the same
// graph and run the first rounds of their op sequence on it; those ops
// count as attempted, and their failures as failed, in `result`.
template <class Service>
void ProbeSharded(ShardedQueryService& sharded, const Run<Service>& run,
                  const Inputs& in, const std::vector<PairList>& lists, int shards,
                  double probe_s, Layers& out, RunResult& result) {
  {
    trel::PartitionOptions po;
    po.num_shards = shards;
    const int64_t t0 = NowNs();
    const trel::StatusOr<trel::Partition> part = trel::PartitionDag(in.graph, po);
    out.Add("sharded.partition_s", static_cast<double>(NowNs() - t0) / 1e9, "s");
    TREL_CHECK(part.ok());
  }
  const trel::ShardedMetricsView before = sharded.MetricsView();
  const auto reaches = [&sharded](const Pair& p) {
    return sharded.Reaches(p.first, p.second);
  };
  int64_t calls = 0;
  const double ns = NsPerCall(lists[0], probe_s, [&](const Pair& p) {
    ++calls;
    return reaches(p);
  });
  const trel::ShardedMetricsView after = sharded.MetricsView();
  out.Add("sharded.reaches_ns", ns, "ns");
  out.Add("sharded.reaches_3t_ns", NsPerCallThreads(lists, 3, probe_s, reaches).first, "ns");
  const double c = static_cast<double>(std::max<int64_t>(1, calls));
  out.Add("sharded.cross_shard_share",
          static_cast<double>(after.cross_shard_queries - before.cross_shard_queries) / c,
          "share");
  out.Add("sharded.hub_hop_share",
          static_cast<double>(after.hub_hop_queries - before.hub_hop_queries) / c, "share");

  std::vector<double> publish_ms;
  trel::ShardedMetricsView w0;
  trel::ShardedMetricsView w1;
  if constexpr (std::is_same_v<Service, ShardedQueryService>) {
    for (const PublishRecord& p : run.writes.publishes) publish_ms.push_back(p.ms);
    w0 = run.sharded_before;
    w1 = run.sharded_after;
  } else {
    const std::vector<Op> head(in.ops.begin(),
                               in.ops.begin() + std::min<size_t>(in.ops.size(), 64));
    w0 = sharded.MetricsView();
    const WriteLog log = RunWriter<false>(sharded, head, nullptr);
    w1 = sharded.MetricsView();
    result.attempted += static_cast<int64_t>(head.size());
    result.failed += log.failed;
    for (const PublishRecord& p : log.publishes) publish_ms.push_back(p.ms);
  }
  const int64_t republishes = w1.boundary_republishes - w0.boundary_republishes;
  const int64_t skips = w1.boundary_skips - w0.boundary_skips;
  out.Add("sharded.publish_shard_ms", Median(publish_ms), "ms");
  out.Add("sharded.boundary_republish_share",
          static_cast<double>(republishes) /
              static_cast<double>(std::max<int64_t>(1, republishes + skips)),
          "share");
  out.Add("sharded.hub_promotions",
          static_cast<double>(w1.hub_promotions - w0.hub_promotions), "count");
}

template <class Service>
void WriterLayers(const Run<Service>& run, Layers& out) {
  const WriteLog& w = run.writes;
  std::vector<double> delta_ms;
  std::vector<double> full_ms;
  std::array<std::vector<double>, trel::kNumPublishPhases> delta_phase;
  std::array<std::vector<double>, trel::kNumPublishPhases> full_phase;
  double overlay_sum = 0.0;
  for (const PublishRecord& p : w.publishes) {
    (p.full ? full_ms : delta_ms).push_back(p.ms);
    for (int ph = 0; ph < trel::kNumPublishPhases; ++ph) {
      (p.full ? full_phase : delta_phase)[ph].push_back(
          static_cast<double>(p.span.phase_micros[ph]));
    }
    overlay_sum += static_cast<double>(p.overlay_nodes);
  }
  const double publishes = static_cast<double>(std::max<size_t>(1, w.publishes.size()));
  out.Add("closure.overlay_nodes", overlay_sum / publishes, "nodes");
  out.Add("dynamic.add_leaf_us", Median(w.leaf_us), "us");
  out.Add("dynamic.add_arc_us", Median(w.arc_us), "us");
  out.Add("dynamic.add_arc_p99_us", Quantile(w.arc_us, 0.99), "us");
  const double arcs = static_cast<double>(std::max<size_t>(1, w.arc_us.size()));
  out.Add("dynamic.visits_per_arc",
          static_cast<double>(run.dyn_after.propagation_node_visits -
                              run.dyn_before.propagation_node_visits) / arcs,
          "nodes");
  out.Add("dynamic.renumbers",
          static_cast<double>(run.dyn_after.renumbers - run.dyn_before.renumbers), "count");
  out.Add("dynamic.reoptimizes",
          static_cast<double>(run.dyn_after.reoptimizes - run.dyn_before.reoptimizes),
          "count");
  out.Add("publish.delta_ms", Median(delta_ms), "ms");
  out.Add("publish.full_ms", Median(full_ms), "ms");
  // Means, not medians: the span log keeps whole microseconds, and most
  // phases take a few of them.
  const auto phase = [](const std::vector<double>& v) { return Mean(v); };
  const auto idx = [](trel::PublishPhase p) { return static_cast<int>(p); };
  out.Add("publish.delta.drain_us", phase(delta_phase[idx(trel::PublishPhase::kDrain)]), "us");
  out.Add("publish.delta.export_us", phase(delta_phase[idx(trel::PublishPhase::kExport)]), "us");
  // The snapshot store; readers loading the pointer can hold it up.
  out.Add("publish.delta.swap_us", phase(delta_phase[idx(trel::PublishPhase::kSwap)]), "us");
  out.Add("publish.full.swap_us", phase(full_phase[idx(trel::PublishPhase::kSwap)]), "us");
  out.Add("publish.full.drain_us", phase(full_phase[idx(trel::PublishPhase::kDrain)]), "us");
  out.Add("publish.full.export_us", phase(full_phase[idx(trel::PublishPhase::kExport)]), "us");
  out.Add("publish.full.arena_build_us",
          phase(full_phase[idx(trel::PublishPhase::kArenaBuild)]), "us");
  out.Add("publish.full.stats_us", phase(full_phase[idx(trel::PublishPhase::kStats)]), "us");
  // The chain-fast -> Alg1 Reoptimize, where a full publish runs one;
  // 0 on workloads whose index never uses a chain cover.
  out.Add("publish.full.rebuild_us", phase(full_phase[idx(trel::PublishPhase::kRebuild)]),
          "us");
  const PublishCounts& a = run.publish_after;
  const PublishCounts& b = run.publish_before;
  const double total = static_cast<double>(std::max<int64_t>(1, a.publishes - b.publishes));
  const int64_t deltas = a.delta - b.delta;
  out.Add("publish.delta_share", static_cast<double>(deltas) / total, "share");
  out.Add("publish.delta_entries_mean",
          static_cast<double>(a.delta_entries - b.delta_entries) /
              static_cast<double>(std::max<int64_t>(1, deltas)),
          "nodes");
  out.Add("publish.chain_full_count", static_cast<double>(a.chain_full - b.chain_full),
          "count");
  out.Add("publish.optimal_full_count",
          static_cast<double>(a.optimal_full - b.optimal_full), "count");
}

double DynamicBuildSeconds(const Digraph& graph) {
  const trel::StatusOr<trel::ChainSignals> signals = trel::AnalyzeChains(graph);
  const int64_t t0 = NowNs();
  trel::StatusOr<trel::DynamicClosure> built =
      (signals.ok() && signals->eligible) ? trel::DynamicClosure::BuildWithChains(graph)
                                          : trel::DynamicClosure::Build(graph);
  if (!built.ok()) built = trel::DynamicClosure::Build(graph);
  const double s = static_cast<double>(NowNs() - t0) / 1e9;
  TREL_CHECK(built.ok());
  return s;
}

void PrintSummary(const Spec& spec, const char* label, int64_t setups, int64_t windows,
                  int64_t windows_1t, int64_t batch_calls, int64_t updates,
                  int64_t publishes, int64_t fulls, const E2E& e) {
  std::fprintf(stderr,
               "perfbench: %s %s: setup_s=%.4f (n=%lld) read_mqps=%.3f (n=%lld) "
               "read_1t_mqps=%.3f (n=%lld) batch_p50_us=%.2f (n=%lld) "
               "update_p50_us=%.3f update_p99_us=%.2f (n=%lld) publish_p50_ms=%.4f "
               "(n=%lld) publish_full_p50_ms=%.3f (n=%lld) index_bytes_per_node=%.2f "
               "peak_rss_mb=%.1f\n",
               spec.name.c_str(), label, e.setup_s, static_cast<long long>(setups),
               e.read_mqps, static_cast<long long>(windows), e.read_1t_mqps,
               static_cast<long long>(windows_1t), e.batch_p50_us,
               static_cast<long long>(batch_calls), e.update_p50_us, e.update_p99_us,
               static_cast<long long>(updates), e.publish_p50_ms,
               static_cast<long long>(publishes), e.publish_full_p50_ms,
               static_cast<long long>(fulls), e.index_bytes_per_node, e.peak_rss_mb);
}

template <class Service>
void PrintRunSummary(const Spec& spec, const char* label, const Run<Service>& r) {
  PrintSummary(spec, label, r.setups, r.windows, r.windows_1t, r.batch_calls, r.updates,
               r.publishes, r.full_publishes, r.e2e);
}

template <class Service>
void AddExact(const Run<Service>& r, const Inputs& in, RunResult& result) {
  result.exact = {
      {"input_digest_low32", static_cast<int64_t>(in.digest & 0xffffffffULL)},
      {"nodes", in.n0},
      {"ops", static_cast<int64_t>(in.ops.size())},
      {"attempted", result.attempted},
      {"failed", result.failed},
      {"publishes", r.publish_after.publishes - r.publish_before.publishes},
      {"publishes_delta", r.publish_after.delta - r.publish_before.delta},
      {"publishes_chain_full", r.publish_after.chain_full - r.publish_before.chain_full},
      {"publishes_optimal_full",
       r.publish_after.optimal_full - r.publish_before.optimal_full},
      {"index_bytes_per_node_x1000",
       static_cast<int64_t>(r.e2e.index_bytes_per_node * 1000.0)},
  };
}

template <class Service>
RunResult RunWorkloadWith(const Spec& spec, const RunConfig& config) {
  const Inputs in = MakeInputs(spec, config.seed, config.seconds);
  RunResult result;
  Run<Service> plain = RunOnce<false, Service>(spec, in, config.seconds, nullptr, nullptr);
  PrintRunSummary(spec, "untraced", plain);
  result.attempted = plain.attempted;
  result.failed = plain.failed;
  if (!config.trace) {
    result.metrics = plain.e2e.AsMetrics();
    AddExact(plain, in, result);
    return result;
  }
  const E2E untraced = plain.e2e;
  AddExact(plain, in, result);
  // Free the untraced run's service, and hand its freed heap back to the
  // kernel, so the traced run's peak RSS starts where the untraced one did.
  plain = Run<Service>();
  malloc_trim(0);

  const double probe_s = config.tiny ? 0.02 : 0.25;
  Layers layers;
  const std::vector<PairList>& lists = in.reader_lists;
  // The kernel-to-service probes run on the freshly loaded service; in the
  // sharded workload shard 0 stands in, with pairs in its own ids.
  std::vector<PairList> shard_lists;
  const auto probe = [&](Service& svc) {
    if constexpr (std::is_same_v<Service, QueryService>) {
      ProbeServiceLayers(svc, lists, in.batches, probe_s, layers);
    } else {
      QueryService& shard = svc.shard(0);
      PairLists local = DrawPairLists(shard.Snapshot()->NumNodes(), config.seed);
      shard_lists = std::move(local.readers);
      ProbeServiceLayers(shard, shard_lists, local.batches, probe_s, layers);
    }
  };

  SpanRecorder recorder(kMainSlot + 1);
  Tracing tracing(&recorder);
  Run<Service> traced = RunOnce<true, Service>(spec, in, config.seconds, &tracing, probe);
  PrintRunSummary(spec, "traced", traced);
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  ProbeOverlay(traced.writes.last_delta,
               std::is_same_v<Service, QueryService> ? lists[0] : shard_lists[0], probe_s,
               layers);
  {
    const std::shared_ptr<const ClosureSnapshot> snap =
        ShardServices(*traced.svc)[0]->Snapshot();
    int64_t intervals = 0;
    int64_t nodes = 0;
    for (QueryService* q : ShardServices(*traced.svc)) {
      const std::shared_ptr<const ClosureSnapshot> s = q->Snapshot();
      intervals += s->closure.TotalIntervals();
      nodes += s->NumNodes();
    }
    layers.Add("closure.intervals_per_node",
               static_cast<double>(intervals) / static_cast<double>(std::max<int64_t>(1, nodes)),
               "intervals/node");
  }
  layers.Add("dynamic.build_s", DynamicBuildSeconds(in.graph), "s");
  WriterLayers(traced, layers);
  // The probe services below each hold another index of the graph: free
  // the workload's first.
  if constexpr (std::is_same_v<Service, ShardedQueryService>) {
    ProbeSharded(*traced.svc, traced, in, lists, spec.num_shards, probe_s, layers, result);
    traced.svc.reset();
  } else {
    traced.svc.reset();
    auto one_shard = MakeService<ShardedQueryService>(1);
    TREL_CHECK(one_shard->Load(in.graph).ok());
    ProbeSharded(*one_shard, traced, in, lists, 1, probe_s, layers, result);
  }
  ProbePool(in.graph, in.batches, layers);
  for (const Metric& m : traced.e2e.Ungated()) layers.Add(m.name, m.value, m.unit);
  const std::vector<Metric> base = untraced.AsMetrics();
  const std::vector<Metric> with = traced.e2e.AsMetrics();
  for (size_t i = 0; i < base.size(); ++i) {
    layers.Add("obs.trace_overhead." + base[i].name,
               base[i].value != 0.0 ? with[i].value / base[i].value : 0.0, "ratio");
  }
  for (const SpanRecorder::Summary& s : recorder.Summarize()) {
    std::fprintf(stderr, "perfbench: span %-22s count=%-8lld total_ms=%-10.3f self_ms=%.3f\n",
                 s.name.c_str(), static_cast<long long>(s.count), s.total_ms, s.self_ms);
  }
  const std::string spans_path = "spans_" + spec.name + ".tsv";
  if (!recorder.WriteTsv(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    result.failed += 1;
  }
  result.metrics = layers.metrics;
  return result;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"point_reads", "update_mix", "sharded_mix"};
}

RunResult RunWorkload(const RunConfig& config) {
  const Spec spec = MakeSpec(config.workload, config.tiny);
  if (spec.name.empty()) {
    RunResult r;
    r.known_workload = false;
    return r;
  }
  if (spec.num_shards > 1) return RunWorkloadWith<ShardedQueryService>(spec, config);
  return RunWorkloadWith<QueryService>(spec, config);
}

}  // namespace perfbench

// Open-loop load generator for the QueryService serving edge.
//
// Closed-loop drivers (issue, wait, issue) hide overload: when the
// server slows down the driver slows down with it, and the recorded
// latencies stay rosy (coordinated omission).  This harness is
// open-loop: arrivals are scheduled on a fixed-rate clock that does NOT
// wait for the server, and every latency is measured from the arrival's
// *scheduled* time — so queue buildup under overload lands in the tail
// percentiles where it belongs.
//
// Scenarios (pick with --scenario=<name> or a key=value scenario file):
//   zipf_single   Zipf-skewed single Reaches() queries.
//   batch_mix     Singles mixed with TryBatch* batches at --batch-ratio,
//                 through the admission gate (rejections reported).
//   update_storm  zipf_single under a concurrent writer publishing
//                 delta snapshots every --update-interval-ms.
//   slow_scrape   zipf_single while slow consumers scrape /metricsz and
//                 /statusz over HTTP, a few bytes at a time.
//   soak          Bounded soak: --publish-count delta publishes under
//                 open-loop load + scrapes; FAILS (exit 1) on p99 drift
//                 between the first and second half, on any scrape
//                 answer other than 200/503, or on malformed scrape
//                 bodies.  CI runs this via tools/ci.sh --soak.
//   shard_mix     Singles plus batches against a ShardedQueryService
//                 (--shards, clustered graph) while a writer thread
//                 adds leaves and publishes them with Publish() — the
//                 sharded serving stack under one open-loop clock.
//
// Each run prints a table and (with TREL_BENCH_JSON=<dir>) writes
// BENCH_loadgen_<scenario>.json, gated by tools/bench_diff.py like any
// other bench artifact.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "obs/histogram.h"
#include "obs/http_server.h"
#include "obs/rollup.h"
#include "service/exposition.h"
#include "service/query_service.h"
#include "service/sharded_service.h"

namespace trel {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Configuration

struct LoadgenConfig {
  std::string scenario = "zipf_single";
  int64_t nodes = 20000;
  double avg_out = 3.0;
  uint64_t seed = 42;
  double rate = 5000.0;     // Scheduled arrivals per second (open loop).
  double duration_s = 10.0;
  int threads = 4;          // Client threads draining the arrival clock.
  double zipf_s = 1.1;      // Zipf skew; ~1.1 matches web-ish popularity.
  double batch_ratio = 0.2; // batch_mix: fraction of arrivals that batch.
  int batch_size = 256;
  int update_interval_ms = 20;  // Writer publish cadence in the storms.
  int updates_per_publish = 8;
  int publish_count = 1000;     // soak: stop after this many publishes.
  int scrape_interval_ms = 50;
  int scrape_chunk_bytes = 256; // Slow consumer: bytes per read...
  int scrape_pause_ms = 2;      // ...and the stall between reads.
  double soak_drift_factor = 3.0;  // soak: p99 half-over-half budget.
  double soak_p99_floor_us = 50.0; // Below this, drift is noise.
  int shards = 4;                  // shard_mix: ShardedQueryService K.
};

bool ParseKeyValue(const std::string& key, const std::string& value,
                   LoadgenConfig* config) {
  auto as_double = [&value]() { return std::strtod(value.c_str(), nullptr); };
  auto as_int = [&value]() { return std::atoll(value.c_str()); };
  if (key == "scenario") config->scenario = value;
  else if (key == "nodes") config->nodes = as_int();
  else if (key == "avg_out") config->avg_out = as_double();
  else if (key == "seed") config->seed = static_cast<uint64_t>(as_int());
  else if (key == "rate") config->rate = as_double();
  else if (key == "duration_s") config->duration_s = as_double();
  else if (key == "threads") config->threads = static_cast<int>(as_int());
  else if (key == "zipf_s") config->zipf_s = as_double();
  else if (key == "batch_ratio") config->batch_ratio = as_double();
  else if (key == "batch_size") config->batch_size = static_cast<int>(as_int());
  else if (key == "update_interval_ms")
    config->update_interval_ms = static_cast<int>(as_int());
  else if (key == "updates_per_publish")
    config->updates_per_publish = static_cast<int>(as_int());
  else if (key == "publish_count")
    config->publish_count = static_cast<int>(as_int());
  else if (key == "scrape_interval_ms")
    config->scrape_interval_ms = static_cast<int>(as_int());
  else if (key == "scrape_chunk_bytes")
    config->scrape_chunk_bytes = static_cast<int>(as_int());
  else if (key == "scrape_pause_ms")
    config->scrape_pause_ms = static_cast<int>(as_int());
  else if (key == "soak_drift_factor") config->soak_drift_factor = as_double();
  else if (key == "soak_p99_floor_us") config->soak_p99_floor_us = as_double();
  else if (key == "shards") config->shards = static_cast<int>(as_int());
  else return false;
  return true;
}

// Scenario files are flat key=value lines ('#' comments), the same keys
// as the --key=value flags; flags given after --scenario-file override
// the file.  See tools/scenarios/ for samples.
bool LoadScenarioFile(const std::string& path, LoadgenConfig* config) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "loadgen: cannot read scenario file %s\n",
                 path.c_str());
    return false;
  }
  const auto trim = [](std::string s) {
    const size_t first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos) return std::string();
    const size_t last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
  };
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos ||
        !ParseKeyValue(trim(line.substr(0, eq)), trim(line.substr(eq + 1)),
                       config)) {
      std::fprintf(stderr, "loadgen: %s:%d: bad line '%s'\n", path.c_str(),
                   line_no, line.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Latency recording (nanoseconds; every client thread records directly).
// `overall` runs from the scheduled arrival to the answer, split at the
// issue instant into `issue_delay` (lateness plus backlog) and `service`.

struct LatencyClass {
  LogHistogram overall;
  LogHistogram issue_delay;
  LogHistogram service;
};

// ---------------------------------------------------------------------------
// Zipf-skewed node sampling over a shuffled id space (so "rank 1" is an
// arbitrary node, not node 0, and hot keys scatter across the index).

class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s, uint64_t seed) : ids_(n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (int64_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (int64_t i = 0; i < n; ++i) ids_[i] = static_cast<NodeId>(i);
    Random rng(seed ^ 0x5eedULL);
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(ids_[i],
                ids_[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
  }

  NodeId Sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const size_t rank = static_cast<size_t>(it - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> ids_;
};

// ---------------------------------------------------------------------------
// The open-loop core.  One atomic arrival counter, N client threads;
// arrival i is *scheduled* at start + i/rate regardless of how the
// server is doing, and its latency runs from that scheduled instant to
// completion.  When the server falls behind, the wait returns
// immediately and the backlog's queueing delay lands in the recorded
// tail — exactly what a closed-loop driver hides.

// Clients sleep to this margin before each arrival, then spin, so the
// sleep's wake-up lateness is not recorded as latency.
constexpr std::chrono::microseconds kSpinMargin{10};

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// `op(seq, rng)` performs arrival `seq` and returns the class to record
// its latency into (nullptr = none).  Returns the arrivals issued.
uint64_t RunOpenLoop(
    double rate, double duration_s, int threads, uint64_t seed,
    const std::function<LatencyClass*(uint64_t, Random&)>& op) {
  const uint64_t total_ops =
      static_cast<uint64_t>(std::max(1.0, rate * duration_s));
  const double period_ns = 1e9 / rate;
  std::atomic<uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  auto client = [&](int thread_index) {
    // The default 50 us timer slack would still overshoot the margin.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Random rng(seed + 0x9e3779b97f4a7c15ULL *
                          static_cast<uint64_t>(thread_index + 1));
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_ops) return;
      const Clock::time_point scheduled =
          start + std::chrono::nanoseconds(static_cast<int64_t>(
                      period_ns * static_cast<double>(i)));
      std::this_thread::sleep_until(scheduled - kSpinMargin);
      Clock::time_point issued = Clock::now();
      while (issued < scheduled) issued = Clock::now();
      LatencyClass* latency = op(i, rng);
      if (latency != nullptr) {
        const Clock::time_point answered = Clock::now();
        latency->overall.Record(Nanos(answered - scheduled));
        latency->issue_delay.Record(Nanos(issued - scheduled));
        latency->service.Record(Nanos(answered - issued));
      }
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) clients.emplace_back(client, t);
  for (std::thread& c : clients) c.join();
  return total_ops;
}

// ---------------------------------------------------------------------------
// Background actors: the delta-publish writer and the slow scraper.

// Applies a few updates and publishes every `interval_ms` until told to
// stop; small touched sets keep the publishes on the delta path (the
// "delta-publish storm" of the update scenarios).
class UpdateStorm {
 public:
  UpdateStorm(QueryService* service, const LoadgenConfig& config,
              int max_publishes)
      : service_(service), config_(config), max_publishes_(max_publishes) {
    thread_ = std::thread([this] { Run(); });
  }
  ~UpdateStorm() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  int publishes() const { return publishes_.load(std::memory_order_relaxed); }

 private:
  void Run() {
    Random rng(config_.seed ^ 0x57024ULL);
    while (!stop_.load(std::memory_order_relaxed)) {
      for (int i = 0; i < config_.updates_per_publish; ++i) {
        const NodeId parent = static_cast<NodeId>(
            rng.Uniform(static_cast<uint64_t>(config_.nodes)));
        auto leaf = service_->AddLeafUnder(parent);
        // Occasionally multi-parent the fresh leaf: an arc INTO a node
        // with no out-arcs can never close a cycle, so this never
        // fails, and it dirties a second subtree for the delta.
        if (leaf.ok() && rng.Bernoulli(0.25)) {
          const NodeId other = static_cast<NodeId>(
              rng.Uniform(static_cast<uint64_t>(config_.nodes)));
          (void)service_->AddArc(other, leaf.value());
        }
      }
      service_->Publish();
      const int done = publishes_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (max_publishes_ > 0 && done >= max_publishes_) return;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.update_interval_ms));
    }
  }

  QueryService* service_;
  const LoadgenConfig config_;
  const int max_publishes_;
  std::atomic<bool> stop_{false};
  std::atomic<int> publishes_{0};
  std::thread thread_;
};

// A deliberately slow HTTP consumer: reads the response a few hundred
// bytes at a time with a pause between reads, exactly the client shape
// that wedges a single-threaded listener.  Validates every answer.
class SlowScraper {
 public:
  SlowScraper(int port, const LoadgenConfig& config)
      : port_(port), config_(config) {
    thread_ = std::thread([this] { Run(); });
  }
  ~SlowScraper() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  int scrapes() const { return scrapes_.load(std::memory_order_relaxed); }
  int shed() const { return shed_.load(std::memory_order_relaxed); }
  int bad() const { return bad_.load(std::memory_order_relaxed); }

 private:
  void Run() {
    const char* paths[2] = {"/metricsz", "/statusz"};
    int which = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      ScrapeOnce(paths[which]);
      which ^= 1;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.scrape_interval_ms));
    }
  }

  void ScrapeOnce(const char* path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      bad_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::string request =
        std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      ::close(fd);
      bad_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::string response;
    std::vector<char> buf(static_cast<size_t>(config_.scrape_chunk_bytes));
    for (;;) {
      const ssize_t n = ::read(fd, buf.data(), buf.size());
      if (n <= 0) break;
      response.append(buf.data(), static_cast<size_t>(n));
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.scrape_pause_ms));
    }
    ::close(fd);
    Classify(path, response);
  }

  void Classify(const char* path, const std::string& response) {
    if (response.rfind("HTTP/1.0 503", 0) == 0) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Anything but a complete, well-formed 200 (or a clean 503 above)
    // is a hard failure: the soak gate trips on `bad() != 0`.
    bool ok = response.rfind("HTTP/1.0 200", 0) == 0;
    if (ok) {
      const size_t body = response.find("\r\n\r\n");
      ok = body != std::string::npos;
      if (ok && std::strcmp(path, "/metricsz") == 0) {
        // Prometheus text: HELP/TYPE headers and our namespace present.
        ok = response.find("# HELP trel_", body) != std::string::npos &&
             response.find("# TYPE trel_", body) != std::string::npos;
      }
      if (ok && std::strcmp(path, "/statusz") == 0) {
        ok = response.find("trel query service status", body) !=
             std::string::npos;
      }
    }
    if (ok) {
      scrapes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      bad_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const int port_;
  const LoadgenConfig config_;
  std::atomic<bool> stop_{false};
  std::atomic<int> scrapes_{0};
  std::atomic<int> shed_{0};
  std::atomic<int> bad_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Scenario runners

// Quantiles are bucket upper edges, so max_us is at most 6.25% above
// the largest latency.
void AddHistRow(bench_util::BenchReport* report, bench_util::Table* table,
                const std::string& name, const LogHistogram::Snapshot& hist) {
  const auto us = [&hist](double q) { return hist.Quantile(q) / 1000.0; };
  table->AddRow({name, bench_util::Fmt(hist.Total()), bench_util::Fmt(us(0.5)),
                 bench_util::Fmt(us(0.99)), bench_util::Fmt(us(0.999)),
                 bench_util::Fmt(us(1.0))});
  report->AddRow()
      .Set("name", name)
      .Set("count", hist.Total())
      .Set("p50_us", us(0.5))
      .Set("p99_us", us(0.99))
      .Set("p999_us", us(0.999))
      .Set("max_us", us(1.0));
}

// The `overall` row and its `issue_delay`/`service` split, over `classes`.
void AddOverallRows(bench_util::BenchReport* report, bench_util::Table* table,
                    std::initializer_list<const LatencyClass*> classes) {
  LogHistogram::Snapshot overall, issue_delay, service;
  for (const LatencyClass* latency : classes) {
    latency->overall.AddTo(&overall);
    latency->issue_delay.AddTo(&issue_delay);
    latency->service.AddTo(&service);
  }
  AddHistRow(report, table, "overall", overall);
  AddHistRow(report, table, "issue_delay", issue_delay);
  AddHistRow(report, table, "service", service);
}

// End-of-run snapshot of the service's own windowed latency engine
// (obs/rollup.h): one row per rollup series x window, so the bench
// artifact pairs the client-observed open-loop latencies with what the
// server measured about itself over the same interval.  Series names
// are fixed per service type (and per --shards for the sharded stack),
// so the row set is deterministic and baseline-diffable.
void AddServerWindowRows(bench_util::BenchReport* report,
                         const LatencyRollup& rollup) {
  for (int s = 0; s < rollup.num_series(); ++s) {
    for (const int minutes : LatencyRollup::WindowMinutes()) {
      const LatencyRollup::WindowStats stats = rollup.Window(s, minutes);
      report->AddRow()
          .Set("name", "server_window_" + rollup.series_name(s) + "_" +
                           std::to_string(minutes) + "m")
          .Set("count", stats.count)
          .Set("p50_us", stats.p50_us)
          .Set("p99_us", stats.p99_us)
          .Set("p999_us", stats.p999_us);
    }
  }
}

// The sharded serving stack under the same open-loop clock: zipf-skewed
// singles plus BatchReaches batches against a ShardedQueryService over
// a clustered graph (the partitioner's home shape), while one writer
// thread adds leaves and publishes them on the update cadence.  Reports
// the same histogram rows as batch_mix plus the boundary counters, as
// BENCH_loadgen_shard_mix.json.
int RunShardMix(const LoadgenConfig& config) {
  std::fprintf(stderr,
               "loadgen: scenario=shard_mix shards=%d nodes=%lld "
               "rate=%.0f/s duration=%.2fs threads=%d\n",
               config.shards, static_cast<long long>(config.nodes),
               config.rate, config.duration_s, config.threads);
  ShardedServiceOptions options;
  options.num_shards = config.shards;
  ShardedQueryService service(options);
  const int num_clusters = std::max(2, config.shards * 2);
  const NodeId cluster_size = static_cast<NodeId>(
      std::max<int64_t>(1, config.nodes / num_clusters));
  const int64_t nodes =
      static_cast<int64_t>(num_clusters) * static_cast<int64_t>(cluster_size);
  {
    const Digraph graph =
        ClusteredDag(num_clusters, cluster_size, config.avg_out,
                     /*gateways=*/3, /*cross_fraction=*/0.08, config.seed);
    const Status status = service.Load(graph);
    if (!status.ok()) {
      std::fprintf(stderr, "loadgen: load failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const ZipfSampler zipf(nodes, config.zipf_s, config.seed);

  // Writer: a few leaves per tick, then one Publish() of every shard that
  // holds writes.  Not a PublishShard per dirtied shard: a root pairs the
  // writer's current hub rows with every shard's snapshot, so that tears
  // a read whenever another shard holds unpublished writes.
  // `shard_publishes` counts the ticks that published.
  std::atomic<bool> stop_writer{false};
  std::atomic<int64_t> shard_publishes{0};
  std::thread writer([&] {
    Random rng(config.seed ^ 0x54a6dULL);
    while (!stop_writer.load(std::memory_order_relaxed)) {
      bool wrote = false;
      for (int i = 0; i < config.updates_per_publish; ++i) {
        const NodeId parent = static_cast<NodeId>(
            rng.Uniform(static_cast<uint64_t>(nodes)));
        wrote |= service.AddLeafUnder(parent).ok();
      }
      if (wrote) {
        service.Publish();
        shard_publishes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.update_interval_ms));
    }
  });

  LatencyClass single, batch;
  const uint64_t issued = RunOpenLoop(
      config.rate, config.duration_s, config.threads, config.seed,
      [&](uint64_t, Random& rng) -> LatencyClass* {
        if (rng.Bernoulli(config.batch_ratio)) {
          std::vector<std::pair<NodeId, NodeId>> pairs;
          pairs.reserve(config.batch_size);
          for (int i = 0; i < config.batch_size; ++i) {
            pairs.emplace_back(zipf.Sample(rng.NextDouble()),
                               zipf.Sample(rng.NextDouble()));
          }
          (void)service.BatchReaches(pairs);
          return &batch;
        }
        (void)service.Reaches(zipf.Sample(rng.NextDouble()),
                              zipf.Sample(rng.NextDouble()));
        return &single;
      });
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();

  bench_util::Table table(
      {"class", "count", "p50_us", "p99_us", "p999_us", "max_us"});
  bench_util::BenchReport report("loadgen_shard_mix");
  report.config()
      .Set("scenario", config.scenario)
      .Set("shards", static_cast<int64_t>(config.shards))
      .Set("nodes", nodes)
      .Set("rate", config.rate)
      .Set("duration_s", config.duration_s)
      .Set("threads", config.threads)
      .Set("zipf_s", config.zipf_s)
      .Set("seed", config.seed)
      .Set("smoke", bench_util::SmokeMode());
  AddOverallRows(&report, &table, {&single});
  AddHistRow(&report, &table, "batch", batch.overall.Read());
  const ShardedMetricsView view = service.MetricsView();
  report.AddRow()
      .Set("name", "sharded_counters")
      .Set("shard_publishes", shard_publishes.load())
      .Set("cross_shard_queries", view.cross_shard_queries)
      .Set("boundary_republishes", view.boundary_republishes)
      .Set("boundary_skips", view.boundary_skips);
  AddServerWindowRows(&report, service.rollup());
  table.Print();
  std::fprintf(stderr,
               "loadgen: %llu arrivals issued, %lld publishing ticks, "
               "%lld cross-shard queries\n",
               static_cast<unsigned long long>(issued),
               static_cast<long long>(shard_publishes.load()),
               static_cast<long long>(view.cross_shard_queries));
  if (!report.WriteIfEnabled()) return 1;
  return 0;
}

int RunScenario(const LoadgenConfig& config) {
  if (config.scenario == "shard_mix") return RunShardMix(config);
  std::fprintf(stderr,
               "loadgen: scenario=%s nodes=%lld rate=%.0f/s duration=%.2fs "
               "threads=%d\n",
               config.scenario.c_str(),
               static_cast<long long>(config.nodes), config.rate,
               config.duration_s, config.threads);

  ServiceOptions options;
  options.max_inflight_batches = 4;  // Exercise the admission gate.
  // Sample 1-in-64 singles so the server-side `single` window series is
  // live (the monolithic rollup only times sampled singles; batches are
  // always timed).  TREL_TRACE_SAMPLE still overrides.
  options.trace_sample_period = 64;
  QueryService service(options);
  {
    const Digraph graph = RandomDag(config.nodes, config.avg_out,
                                    static_cast<uint64_t>(config.seed));
    const Status status = service.Load(graph);
    if (!status.ok()) {
      std::fprintf(stderr, "loadgen: load failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const ZipfSampler zipf(config.nodes, config.zipf_s, config.seed);

  LatencyClass single, batch;
  LatencyClass first_half, second_half;  // soak drift tracking.
  std::atomic<int64_t> batches_rejected{0};

  const bool is_soak = config.scenario == "soak";
  const bool with_storm = config.scenario == "update_storm" || is_soak;
  const bool with_scrape = config.scenario == "slow_scrape" || is_soak;
  const bool with_batches = config.scenario == "batch_mix";

  // Serving edge for the scrape scenarios: small worker set and a low
  // connection cap so shedding is reachable, like a real diagnostics
  // port under pressure.
  HttpServer::Options http_options;
  http_options.num_threads = 2;
  http_options.max_connections = 8;
  HttpServer http(http_options);
  std::unique_ptr<SlowScraper> scraper;
  if (with_scrape) {
    http.Handle("/metricsz", [&service]() { return RenderMetricsz(service); });
    http.Handle("/statusz", [&service]() { return RenderStatusz(service); });
    const Status status = http.Start(0);
    if (!status.ok()) {
      std::fprintf(stderr, "loadgen: http start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    scraper = std::make_unique<SlowScraper>(http.port(), config);
  }
  std::unique_ptr<UpdateStorm> storm;
  if (with_storm) {
    storm = std::make_unique<UpdateStorm>(
        &service, config, is_soak ? config.publish_count : 0);
  }

  // Soak halves are split on the wall clock so drift compares early vs.
  // late behavior even when the arrival clock falls behind.
  const Clock::time_point half_mark =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int64_t>(config.duration_s * 500.0));
  const uint64_t issued = RunOpenLoop(
      config.rate, config.duration_s, config.threads, config.seed,
      [&](uint64_t, Random& rng) -> LatencyClass* {
        if (with_batches && rng.Bernoulli(config.batch_ratio)) {
          std::vector<std::pair<NodeId, NodeId>> pairs;
          pairs.reserve(config.batch_size);
          for (int i = 0; i < config.batch_size; ++i) {
            pairs.emplace_back(zipf.Sample(rng.NextDouble()),
                               zipf.Sample(rng.NextDouble()));
          }
          auto result = service.TryBatchReaches(pairs);
          if (!result.ok()) {
            batches_rejected.fetch_add(1, std::memory_order_relaxed);
            return nullptr;  // Shed, not slow: keep it out of the tail.
          }
          return &batch;
        }
        const NodeId u = zipf.Sample(rng.NextDouble());
        const NodeId v = zipf.Sample(rng.NextDouble());
        (void)service.Reaches(u, v);
        if (is_soak) {
          return Clock::now() < half_mark ? &first_half : &second_half;
        }
        return &single;
      });

  // Soak keeps loading until the publish target is met, so a slow box
  // still exercises all --publish-count publishes (bounded by cadence:
  // publish_count * update_interval_ms).
  if (is_soak && storm != nullptr) {
    while (storm->publishes() < config.publish_count) {
      RunOpenLoop(config.rate, 0.25, config.threads,
                  config.seed ^ storm->publishes(),
                  [&](uint64_t, Random& rng) -> LatencyClass* {
                    (void)service.Reaches(zipf.Sample(rng.NextDouble()),
                                          zipf.Sample(rng.NextDouble()));
                    return &second_half;
                  });
    }
  }

  if (storm != nullptr) storm->Stop();
  if (scraper != nullptr) scraper->Stop();
  if (with_scrape) http.Stop();

  // ---- Report -------------------------------------------------------------
  bench_util::Table table(
      {"class", "count", "p50_us", "p99_us", "p999_us", "max_us"});
  bench_util::BenchReport report("loadgen_" + config.scenario);
  report.config()
      .Set("scenario", config.scenario)
      .Set("nodes", config.nodes)
      .Set("rate", config.rate)
      .Set("duration_s", config.duration_s)
      .Set("threads", config.threads)
      .Set("zipf_s", config.zipf_s)
      .Set("seed", config.seed)
      .Set("smoke", bench_util::SmokeMode());

  int exit_code = 0;
  if (is_soak) {
    const LogHistogram::Snapshot first = first_half.overall.Read();
    const LogHistogram::Snapshot second = second_half.overall.Read();
    AddOverallRows(&report, &table, {&first_half, &second_half});
    AddHistRow(&report, &table, "first_half", first);
    AddHistRow(&report, &table, "second_half", second);
    const double p99_a = first.Quantile(0.99) / 1000.0;
    const double p99_b = second.Quantile(0.99) / 1000.0;
    const double budget =
        config.soak_drift_factor * std::max(p99_a, config.soak_p99_floor_us);
    const int publishes = storm != nullptr ? storm->publishes() : 0;
    const int bad_scrapes = scraper != nullptr ? scraper->bad() : 0;
    report.AddRow()
        .Set("name", "soak_verdict")
        .Set("publishes", static_cast<int64_t>(publishes))
        .Set("p99_first_half_us", p99_a)
        .Set("p99_second_half_us", p99_b)
        .Set("p99_budget_us", budget)
        .Set("good_scrapes",
             static_cast<int64_t>(scraper != nullptr ? scraper->scrapes() : 0))
        .Set("shed_scrapes",
             static_cast<int64_t>(scraper != nullptr ? scraper->shed() : 0))
        .Set("bad_scrapes", static_cast<int64_t>(bad_scrapes));
    if (publishes < config.publish_count) {
      std::fprintf(stderr, "loadgen: SOAK FAIL: only %d/%d publishes ran\n",
                   publishes, config.publish_count);
      exit_code = 1;
    }
    if (p99_b > budget) {
      std::fprintf(stderr,
                   "loadgen: SOAK FAIL: p99 drifted %.1fus -> %.1fus "
                   "(budget %.1fus)\n",
                   p99_a, p99_b, budget);
      exit_code = 1;
    }
    if (bad_scrapes != 0) {
      std::fprintf(stderr,
                   "loadgen: SOAK FAIL: %d scrape(s) returned neither a "
                   "well-formed 200 nor a 503\n",
                   bad_scrapes);
      exit_code = 1;
    }
    if (exit_code == 0) {
      std::fprintf(stderr,
                   "loadgen: soak ok: %d publishes, p99 %.1fus -> %.1fus, "
                   "%d scrapes (%d shed)\n",
                   publishes, p99_a, p99_b,
                   scraper != nullptr ? scraper->scrapes() : 0,
                   scraper != nullptr ? scraper->shed() : 0);
    }
  } else {
    AddOverallRows(&report, &table, {&single});
    if (with_batches) {
      const LogHistogram::Snapshot batches = batch.overall.Read();
      AddHistRow(&report, &table, "batch", batches);
      report.AddRow()
          .Set("name", "batch_admission")
          .Set("batches_ok", batches.Total())
          .Set("batches_rejected", batches_rejected.load());
    }
    if (storm != nullptr) {
      report.AddRow()
          .Set("name", "publishes")
          .Set("publishes", static_cast<int64_t>(storm->publishes()));
    }
    if (scraper != nullptr) {
      report.AddRow()
          .Set("name", "scrapes")
          .Set("good_scrapes", static_cast<int64_t>(scraper->scrapes()))
          .Set("shed_scrapes", static_cast<int64_t>(scraper->shed()))
          .Set("bad_scrapes", static_cast<int64_t>(scraper->bad()));
      if (scraper->bad() != 0) {
        std::fprintf(stderr, "loadgen: FAIL: %d malformed scrape(s)\n",
                     scraper->bad());
        exit_code = 1;
      }
    }
  }
  AddServerWindowRows(&report, service.rollup());
  table.Print();
  std::fprintf(stderr, "loadgen: %llu arrivals issued\n",
               static_cast<unsigned long long>(issued));
  if (!report.WriteIfEnabled()) exit_code = 1;
  return exit_code;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: loadgen [--scenario=zipf_single|batch_mix|update_storm|"
      "slow_scrape|soak|shard_mix]\n"
      "               [--scenario-file=path] [--rate=N] [--duration-s=S]\n"
      "               [--threads=N] [--nodes=N] [--seed=N] [--zipf-s=S]\n"
      "               [--batch-ratio=F] [--batch-size=N]\n"
      "               [--update-interval-ms=N] [--publish-count=N] ...\n"
      "Any scenario-file key works as --key=value (dashes map to "
      "underscores).\n"
      "TREL_BENCH_SMOKE=1 shrinks sizes; TREL_BENCH_JSON=<dir> writes\n"
      "BENCH_loadgen_<scenario>.json for tools/bench_diff.py.\n");
  return 2;
}

int Main(int argc, char** argv) {
  LoadgenConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return Usage();
    std::string key = arg.substr(0, eq);
    std::replace(key.begin(), key.end(), '-', '_');
    const std::string value = arg.substr(eq + 1);
    if (key == "scenario_file") {
      if (!LoadScenarioFile(value, &config)) return 2;
    } else if (!ParseKeyValue(key, value, &config)) {
      std::fprintf(stderr, "loadgen: unknown flag --%s\n", key.c_str());
      return Usage();
    }
  }
  if (bench_util::SmokeMode()) {
    // Smoke is a does-it-run pass, not a measurement: tiny graph, short
    // clock, modest rate, and a soak target that still exercises deltas.
    config.nodes = std::min<int64_t>(config.nodes, 500);
    config.duration_s = std::min(config.duration_s, 0.4);
    config.rate = std::min(config.rate, 2000.0);
    config.threads = std::min(config.threads, 2);
    config.publish_count = std::min(config.publish_count, 25);
    config.update_interval_ms = std::min(config.update_interval_ms, 5);
    config.scrape_interval_ms = std::min(config.scrape_interval_ms, 20);
  }
  return RunScenario(config);
}

}  // namespace
}  // namespace trel

int main(int argc, char** argv) { return trel::Main(argc, argv); }

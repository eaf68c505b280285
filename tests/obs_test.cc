// Observability subsystem (src/obs/ + service exposition): the sampled
// query tracer, publish spans, slow-query log, Prometheus rendering, the
// embedded HTTP listener, and their agreement with ServiceMetrics.
// QueryTracerTest.ConcurrentRecordAndDrain is a TSan target of
// tools/ci.sh --obs.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/compressed_closure.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "obs/histogram.h"
#include "obs/http_server.h"
#include "obs/prometheus.h"
#include "obs/slow_log.h"
#include "obs/span_log.h"
#include "obs/trace.h"
#include "service/exposition.h"
#include "service/query_service.h"

namespace trel {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram

// Power-of-two bucket (of `width`) the fold puts `value` in.
int FoldedBucket(int64_t value, int width) {
  LogHistogram histogram;
  histogram.Record(value);
  std::vector<int64_t> folded(static_cast<size_t>(width), 0);
  histogram.Read().FoldPowerOfTwo(folded);
  return static_cast<int>(std::find(folded.begin(), folded.end(), 1) -
                          folded.begin());
}

TEST(LogHistogramTest, BucketsAreAtMostOneSixteenthWide) {
  // Buckets tile [0, 2^40) in order, and from 16 up none is wider than
  // 1/16 of its lower edge.
  int64_t lower = 0;
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    const int64_t upper = LogHistogram::UpperEdge(b);
    ASSERT_LT(lower, upper) << "bucket " << b;
    EXPECT_EQ(LogHistogram::BucketOf(lower), b);
    EXPECT_EQ(LogHistogram::BucketOf(upper - 1), b);
    if (lower >= 16) {
      EXPECT_LE(16 * (upper - lower), lower) << "bucket " << b;
    }
    lower = upper;
  }
  EXPECT_EQ(lower, int64_t{1} << 40);
  // Every value lies inside its bucket: exhaustively up to 2^16, then at
  // random magnitudes up to the clamp.
  Random rng(5);
  for (int64_t i = 0; i < (int64_t{1} << 17); ++i) {
    const int64_t value =
        i < (int64_t{1} << 16)
            ? i
            : static_cast<int64_t>(rng.Uniform(uint64_t{1} << 40) >>
                                   rng.Uniform(40));
    const int b = LogHistogram::BucketOf(value);
    const int64_t bucket_lower = b == 0 ? 0 : LogHistogram::UpperEdge(b - 1);
    ASSERT_LE(bucket_lower, value);
    ASSERT_LT(value, LogHistogram::UpperEdge(b));
    if (value >= 16) {
      ASSERT_LE(16 * (LogHistogram::UpperEdge(b) - bucket_lower), value);
    }
  }
}

TEST(LogHistogramTest, PowersFoldIntoOwnBucket) {
  // The coarse layout's defining property, at both exposition widths:
  // 2^i is the first value of power-of-two bucket i, 2^i - 1 the last of
  // bucket i - 1, and no fine bucket straddles the boundary.
  for (const int width : {22, 24}) {
    for (int i = 1; i < width; ++i) {
      const int64_t p = int64_t{1} << i;
      EXPECT_EQ(FoldedBucket(p - 1, width), i - 1) << "2^" << i << " - 1";
      EXPECT_EQ(FoldedBucket(p, width), i) << "2^" << i;
      EXPECT_EQ(FoldedBucket(p + 1, width), i) << "2^" << i << " + 1";
    }
  }
}

TEST(LogHistogramTest, FoldEdgesAndClamping) {
  EXPECT_EQ(FoldedBucket(0, 22), 0);
  EXPECT_EQ(FoldedBucket(1, 22), 0);
  EXPECT_EQ(FoldedBucket(2, 22), 1);
  EXPECT_EQ(FoldedBucket(-7, 22), 0);
  // Everything at or past 2^21 collapses into the last bucket, past the
  // histogram's own 2^40 clamp too.
  for (int i = 22; i <= 41; ++i) {
    const int64_t p = int64_t{1} << i;
    EXPECT_EQ(FoldedBucket(p - 1, 22), 21) << "2^" << i << " - 1";
    EXPECT_EQ(FoldedBucket(p, 22), 21) << "2^" << i;
    EXPECT_EQ(FoldedBucket(p + 1, 22), 21) << "2^" << i << " + 1";
  }
  EXPECT_EQ(FoldedBucket(INT64_MAX, 22), 21);
}

TEST(LogHistogramTest, QuantileIsUpperEdgeOfDecidingBucket) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.Read().Quantile(0.5), 0);
  for (int i = 0; i < 99; ++i) histogram.Record(1000);  // [992, 1024)
  histogram.Record(int64_t{1} << 20);  // [2^20, 2^20 + 2^16)
  const LogHistogram::Snapshot snapshot = histogram.Read();
  EXPECT_EQ(snapshot.Total(), 100);
  EXPECT_EQ(snapshot.Quantile(0.5), 1024);
  EXPECT_EQ(snapshot.Quantile(0.99), 1024);
  EXPECT_EQ(snapshot.Quantile(1.0), (int64_t{1} << 20) + (int64_t{1} << 16));
  histogram.Clear();
  EXPECT_EQ(histogram.Read().Total(), 0);
}

// ---------------------------------------------------------------------------
// ServiceMetrics::View::ToString golden

TEST(ServiceMetricsViewTest, ToStringGolden) {
  ServiceMetrics::View view;
  view.current_epoch = 3;
  view.snapshot_age_seconds = 0.5;
  view.snapshot_num_nodes = 10;
  view.snapshot_total_intervals = 12;
  view.snapshot_overlay_nodes = 1;
  view.snapshot_arena_bytes = 2048;
  view.spare_arena_bytes = 4096;
  view.simd_level = 0;
  view.simd_level_name = "scalar";
  view.reach_queries = 100;
  view.successor_queries = 5;
  view.batches = 2;
  view.batch_micros_total = 300;
  view.batches_rejected = 1;
  view.batch_fast_path = 50;
  view.batch_filter_rejects = 30;
  view.batch_group_rejects = 10;
  view.batch_extras_searches = 10;
  view.publishes = 3;
  view.publishes_full = 2;
  view.publishes_delta = 1;
  view.publishes_chain_full = 1;
  view.publishes_optimal_full = 1;
  view.publishes_folded = 1;
  view.publish_micros_total = 1020;
  view.publish_full_micros_total = 1000;
  view.publish_delta_micros_total = 20;
  view.publish_chain_full_micros_total = 300;
  view.publish_optimal_full_micros_total = 700;
  view.delta_nodes_total = 4;
  view.batch_latency_histogram[8] = 2;  // [256, 512) us.
  view.delta_nodes_histogram[2] = 1;    // [4, 8) nodes.
  view.last_publish_strategy = "chain_full";
  view.chain_full_intervals_last = 24;
  view.optimal_full_intervals_last = 12;
  view.chain_interval_blowup = 2.0;

  EXPECT_EQ(view.ToString(),
            "epoch=3 age_s=0.5 nodes=10 intervals=12 overlay_nodes=1 "
            "arena_bytes=2048 simd=scalar reach_queries=100 "
            "successor_queries=5 batches=2 batch_us=300 batches_rejected=1 "
            "batch_kernel=[fast=50 filter_rej=30 group_rej=10 extras=10] "
            "publishes=3 (full=2 delta=1) publish_us=1020 (full=1000 "
            "delta=20) delta_nodes=4 latency_hist_us=[<512:2] "
            "delta_nodes_hist=[<8:1] publish_strategy=chain_full "
            "publishes_chain_full=1 publishes_optimal_full=1 "
            "publish_us_chain_full=300 publish_us_optimal_full=700 "
            "chain_intervals_last=24 optimal_intervals_last=12 "
            "chain_blowup=2 publishes_folded=1 spare_arena_bytes=4096");
}

// ---------------------------------------------------------------------------
// Prometheus text rendering

TEST(PrometheusTest, CounterAndGaugeGolden) {
  PrometheusText text;
  text.Family("demo_total", "A demo counter.", "counter");
  text.Sample("demo_total", "", int64_t{7});
  text.Sample("demo_total", "kind=\"full\"", int64_t{2});
  text.Family("demo_ratio", "A demo gauge.", "gauge");
  text.Sample("demo_ratio", "", 0.25);
  EXPECT_EQ(text.str(),
            "# HELP demo_total A demo counter.\n"
            "# TYPE demo_total counter\n"
            "demo_total 7\n"
            "demo_total{kind=\"full\"} 2\n"
            "# HELP demo_ratio A demo gauge.\n"
            "# TYPE demo_ratio gauge\n"
            "demo_ratio 0.25\n");
}

TEST(PrometheusTest, HistogramCumulativeGolden) {
  // Buckets {1, 2, 0, 3}: cumulative counts 1, 3, 3; the open-ended last
  // bucket folds into +Inf = 6.  _sum is the tracked total, not derived.
  const int64_t buckets[4] = {1, 2, 0, 3};
  PrometheusText text;
  text.Histogram("demo", "kind=\"full\"", buckets, 4, 40);
  EXPECT_EQ(text.str(),
            "demo_bucket{kind=\"full\",le=\"2\"} 1\n"
            "demo_bucket{kind=\"full\",le=\"4\"} 3\n"
            "demo_bucket{kind=\"full\",le=\"8\"} 3\n"
            "demo_bucket{kind=\"full\",le=\"+Inf\"} 6\n"
            "demo_sum{kind=\"full\"} 40\n"
            "demo_count{kind=\"full\"} 6\n");
}

TEST(PrometheusTest, UnlabeledHistogramAndLabelEscaping) {
  const int64_t buckets[2] = {4, 0};
  PrometheusText text;
  text.Histogram("h", "", buckets, 2, 5);
  EXPECT_EQ(text.str(),
            "h_bucket{le=\"2\"} 4\n"
            "h_bucket{le=\"+Inf\"} 4\n"
            "h_sum 5\n"
            "h_count 4\n");
  EXPECT_EQ(PrometheusText::Label("name", "a\"b\\c\nd"),
            "name=\"a\\\"b\\\\c\\nd\"");
}

// ---------------------------------------------------------------------------
// QueryTracer

TEST(QueryTracerTest, DisabledByDefault) {
  QueryTracer tracer;
  EXPECT_EQ(tracer.sample_period(), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(tracer.ShouldSample());
  EXPECT_EQ(tracer.TotalSampled(), 0u);
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(QueryTracerTest, PeriodRoundsUpToPowerOfTwo) {
  QueryTracer tracer;
  tracer.SetSamplePeriod(1);
  EXPECT_EQ(tracer.sample_period(), 1u);
  tracer.SetSamplePeriod(100);
  EXPECT_EQ(tracer.sample_period(), 128u);
  tracer.SetSamplePeriod(1024);
  EXPECT_EQ(tracer.sample_period(), 1024u);
  tracer.SetSamplePeriod(0);
  EXPECT_EQ(tracer.sample_period(), 0u);
}

TEST(QueryTracerTest, SamplesOneInPeriod) {
  QueryTracer tracer;
  tracer.SetSamplePeriod(4);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) sampled += tracer.ShouldSample() ? 1 : 0;
  EXPECT_EQ(sampled, 100);
}

TEST(QueryTracerTest, RecordDrainRoundTrip) {
  QueryTracer tracer;
  tracer.SetSamplePeriod(1);
  tracer.Record(/*source=*/3, /*target=*/9, /*answer=*/true,
                /*from_batch=*/false, ProbeTag::kExtrasSearch,
                /*extras_probes=*/5, /*epoch=*/2, /*nanos=*/1234);
  tracer.Record(7, 1, false, true, ProbeTag::kFilterReject, 0, 2, 88);
  const std::vector<TraceRecord> records = tracer.Drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 0u);
  EXPECT_EQ(records[0].source, 3);
  EXPECT_EQ(records[0].target, 9);
  EXPECT_TRUE(records[0].answer);
  EXPECT_FALSE(records[0].from_batch);
  EXPECT_EQ(records[0].tag, ProbeTag::kExtrasSearch);
  EXPECT_EQ(records[0].extras_probes, 5u);
  EXPECT_EQ(records[0].epoch, 2u);
  EXPECT_EQ(records[0].nanos, 1234u);
  EXPECT_EQ(records[1].sequence, 1u);
  EXPECT_EQ(records[1].tag, ProbeTag::kFilterReject);
  EXPECT_TRUE(records[1].from_batch);
  EXPECT_EQ(tracer.TotalSampled(), 2u);
  const auto tags = tracer.TagCounts();
  EXPECT_EQ(tags[static_cast<int>(ProbeTag::kExtrasSearch)], 1u);
  EXPECT_EQ(tags[static_cast<int>(ProbeTag::kFilterReject)], 1u);
}

TEST(QueryTracerTest, RingRetainsNewestRecords) {
  QueryTracer tracer(/*ring_capacity=*/4);
  tracer.SetSamplePeriod(1);
  // Single thread -> single ring; 20 records overwrite down to the last 4.
  for (int i = 0; i < 20; ++i) {
    tracer.Record(i, i, false, false, ProbeTag::kSlot, 0, 1, i);
  }
  const std::vector<TraceRecord> records = tracer.Drain();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().sequence, 16u);
  EXPECT_EQ(records.back().sequence, 19u);
  EXPECT_EQ(tracer.TotalSampled(), 20u);
}

TEST(QueryTracerTest, ConcurrentRecordAndDrain) {
  QueryTracer tracer(/*ring_capacity=*/64);
  tracer.SetSamplePeriod(1);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w]() {
      for (int i = 0; i < kPerWriter; ++i) {
        tracer.Record(w, i, (i & 1) != 0, false, ProbeTag::kFilterReject, 0,
                      1, i);
      }
    });
  }
  // Drain concurrently with the writers; torn slots must be skipped, not
  // misread, and every surfaced record must be internally consistent.
  for (int round = 0; round < 50; ++round) {
    for (const TraceRecord& r : tracer.Drain()) {
      EXPECT_LT(r.source, kWriters);
      EXPECT_LT(static_cast<int>(r.target), kPerWriter);
      EXPECT_EQ(r.answer, (r.target & 1) != 0);
      EXPECT_EQ(r.tag, ProbeTag::kFilterReject);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(tracer.TotalSampled(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

TEST(QueryTracerTest, PeriodFromEnv) {
  ASSERT_EQ(setenv("TREL_TRACE_SAMPLE", "100", 1), 0);
  EXPECT_EQ(QueryTracer::PeriodFromEnv(), 100u);
  ASSERT_EQ(setenv("TREL_TRACE_SAMPLE", "0", 1), 0);
  EXPECT_EQ(QueryTracer::PeriodFromEnv(), 0u);
  ASSERT_EQ(setenv("TREL_TRACE_SAMPLE", "garbage", 1), 0);
  EXPECT_EQ(QueryTracer::PeriodFromEnv(), 0u);
  ASSERT_EQ(unsetenv("TREL_TRACE_SAMPLE"), 0);
  EXPECT_EQ(QueryTracer::PeriodFromEnv(), 0u);
}

// ---------------------------------------------------------------------------
// SpanLog

TEST(SpanLogTest, AggregateSplitsByStrategy) {
  SpanLog log(/*capacity=*/8);
  PublishSpan optimal;
  optimal.epoch = 1;
  optimal.strategy = PublishStrategy::kOptimalFull;
  optimal.total_micros = 100;
  optimal.phase_micros[static_cast<int>(PublishPhase::kExport)] = 60;
  optimal.phase_micros[static_cast<int>(PublishPhase::kArenaBuild)] = 30;
  log.Record(optimal);
  PublishSpan delta;
  delta.epoch = 2;
  delta.strategy = PublishStrategy::kDelta;
  delta.total_micros = 5;
  delta.phase_micros[static_cast<int>(PublishPhase::kDrain)] = 3;
  log.Record(delta);
  PublishSpan chain;
  chain.epoch = 3;
  chain.strategy = PublishStrategy::kChainFull;
  chain.total_micros = 40;
  chain.phase_micros[static_cast<int>(PublishPhase::kRebuild)] = 25;
  log.Record(chain);

  const int kDelta = static_cast<int>(PublishStrategy::kDelta);
  const int kChain = static_cast<int>(PublishStrategy::kChainFull);
  const int kOptimal = static_cast<int>(PublishStrategy::kOptimalFull);
  const SpanLog::Aggregate agg = log.Read();
  EXPECT_EQ(agg.phase_micros_total[kOptimal]
                                  [static_cast<int>(PublishPhase::kExport)],
            60);
  EXPECT_EQ(agg.phase_micros_total[kOptimal][static_cast<int>(
                PublishPhase::kArenaBuild)],
            30);
  EXPECT_EQ(
      agg.phase_micros_total[kDelta][static_cast<int>(PublishPhase::kDrain)],
      3);
  EXPECT_EQ(agg.phase_micros_total[kChain]
                                  [static_cast<int>(PublishPhase::kRebuild)],
            25);
  // 60us -> bucket 5 ([32, 64)); 3us -> bucket 1 ([2, 4));
  // 25us -> bucket 4 ([16, 32)).
  EXPECT_EQ(
      agg.phase_histogram[kOptimal][static_cast<int>(PublishPhase::kExport)][5],
      1);
  EXPECT_EQ(
      agg.phase_histogram[kDelta][static_cast<int>(PublishPhase::kDrain)][1],
      1);
  EXPECT_EQ(
      agg.phase_histogram[kChain][static_cast<int>(PublishPhase::kRebuild)][4],
      1);

  const std::vector<PublishSpan> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].strategy, PublishStrategy::kOptimalFull);
  EXPECT_EQ(recent[1].strategy, PublishStrategy::kDelta);
  EXPECT_EQ(recent[2].strategy, PublishStrategy::kChainFull);
  EXPECT_EQ(recent[1].epoch, 2u);
}

TEST(SpanLogTest, RecentIsBounded) {
  SpanLog log(/*capacity=*/2);
  for (uint64_t e = 1; e <= 5; ++e) {
    PublishSpan span;
    span.epoch = e;
    log.Record(span);
  }
  const std::vector<PublishSpan> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].epoch, 4u);
  EXPECT_EQ(recent[1].epoch, 5u);
  // Aggregates keep counting (default spans tag as optimal_full and
  // record 0 us in every phase).
  EXPECT_EQ(log.Read().phase_histogram[static_cast<int>(
                PublishStrategy::kOptimalFull)][0][0],
            5);
}

TEST(SpanLogTest, PhaseNames) {
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kDrain), "drain");
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kExport), "export");
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kArenaBuild), "arena_build");
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kStats), "stats");
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kSwap), "swap");
  EXPECT_STREQ(PublishPhaseName(PublishPhase::kRebuild), "rebuild");
}

TEST(SpanLogTest, StrategyNames) {
  EXPECT_STREQ(PublishStrategyName(PublishStrategy::kDelta), "delta");
  EXPECT_STREQ(PublishStrategyName(PublishStrategy::kChainFull), "chain_full");
  EXPECT_STREQ(PublishStrategyName(PublishStrategy::kOptimalFull),
               "optimal_full");
}

// ---------------------------------------------------------------------------
// SlowQueryLog

TEST(SlowQueryLogTest, BoundedRetentionAndTotal) {
  SlowQueryLog log(/*capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    SlowQueryEntry entry;
    entry.source = i;
    entry.micros = 1000 + i;
    log.Record(entry);
  }
  const std::vector<SlowQueryEntry> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].sequence, 1u);
  EXPECT_EQ(recent[0].source, 1);
  EXPECT_EQ(recent[1].sequence, 2u);
  EXPECT_EQ(recent[1].source, 2);
  EXPECT_EQ(log.TotalRecorded(), 3);
}

// ---------------------------------------------------------------------------
// Snapshot age (regression: ages must come from the monotonic clock and
// can never be negative)

TEST(SnapshotAgeTest, NeverNegative) {
  ClosureSnapshot snapshot;
  snapshot.created_at =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  EXPECT_EQ(snapshot.AgeSeconds(), 0.0);
}

TEST(SnapshotAgeTest, PublishedSnapshotAgeIsSane) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(50, 2.0, 7)).ok());
  const ServiceMetrics::View view = service.Metrics();
  EXPECT_GE(view.snapshot_age_seconds, 0.0);
  EXPECT_LT(view.snapshot_age_seconds, 60.0);
}

// ---------------------------------------------------------------------------
// Exposition: agreement with ServiceMetrics::Read() and format shape

// Parses unlabeled and labeled sample lines into name{labels} -> value.
std::map<std::string, double> ParseSamples(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

TEST(ExpositionTest, MetricszAgreesWithRead) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(300, 3.0, 11)).ok());
  for (NodeId u = 0; u < 50; ++u) (void)service.Reaches(u, (u * 7) % 300);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 300; ++u) pairs.emplace_back(u, 299 - u);
  (void)service.BatchReaches(pairs);

  const ServiceMetrics::View view = service.Metrics();
  const std::map<std::string, double> samples =
      ParseSamples(RenderMetricsz(service));

  EXPECT_EQ(samples.at("trel_reach_queries_total"),
            static_cast<double>(view.reach_queries));
  EXPECT_EQ(samples.at("trel_successor_queries_total"),
            static_cast<double>(view.successor_queries));
  EXPECT_EQ(samples.at("trel_batches_total"),
            static_cast<double>(view.batches));
  EXPECT_EQ(samples.at("trel_batch_micros_total"),
            static_cast<double>(view.batch_micros_total));
  EXPECT_EQ(samples.at("trel_publishes_total{kind=\"chain_full\"}"),
            static_cast<double>(view.publishes_chain_full));
  EXPECT_EQ(samples.at("trel_publishes_total{kind=\"optimal_full\"}"),
            static_cast<double>(view.publishes_optimal_full));
  EXPECT_EQ(samples.at("trel_publishes_total{kind=\"delta\"}"),
            static_cast<double>(view.publishes_delta));
  EXPECT_EQ(view.publishes_full,
            view.publishes_chain_full + view.publishes_optimal_full);
  EXPECT_EQ(samples.at("trel_delta_nodes_total"),
            static_cast<double>(view.delta_nodes_total));
  EXPECT_EQ(samples.at("trel_batch_kernel_outcomes_total{outcome=\"fast_"
                       "path\"}"),
            static_cast<double>(view.batch_fast_path));
  EXPECT_EQ(samples.at("trel_batch_kernel_outcomes_total{outcome=\"filter_"
                       "reject\"}"),
            static_cast<double>(view.batch_filter_rejects));
  EXPECT_EQ(samples.at("trel_batch_kernel_outcomes_total{outcome=\"extras_"
                       "search\"}"),
            static_cast<double>(view.batch_extras_searches));
  EXPECT_EQ(samples.at("trel_snapshot_epoch"),
            static_cast<double>(view.current_epoch));
  EXPECT_EQ(samples.at("trel_snapshot_nodes"),
            static_cast<double>(view.snapshot_num_nodes));
  EXPECT_EQ(samples.at("trel_snapshot_arena_bytes"),
            static_cast<double>(view.snapshot_arena_bytes));
  EXPECT_EQ(samples.at("trel_snapshot_spare_arena_bytes"),
            static_cast<double>(view.spare_arena_bytes));
  EXPECT_EQ(samples.at("trel_batch_latency_microseconds_count"),
            static_cast<double>(view.batches));
  EXPECT_EQ(samples.at("trel_batch_latency_microseconds_sum"),
            static_cast<double>(view.batch_micros_total));
  // All queries ran with tracing off.
  EXPECT_EQ(samples.at("trel_trace_sampled_total"), 0.0);
  EXPECT_EQ(samples.at("trel_trace_sample_period"), 0.0);
  EXPECT_EQ(samples.at("trel_slow_queries_total"), 0.0);
}

TEST(ExpositionTest, MetricszIsWellFormedPrometheus) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(100, 2.0, 3)).ok());
  const std::string text = RenderMetricsz(service);

  std::set<std::string> typed_families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream header(line.substr(7));
      std::string family, type;
      header >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      // A family header may appear only once.
      EXPECT_TRUE(typed_families.insert(family).second) << family;
      continue;
    }
    if (line[0] == '#') continue;
    // Sample lines: `name[{labels}] value`, where name extends a declared
    // family (histogram samples append _bucket/_sum/_count).
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) name = name.substr(0, brace);
    bool declared = typed_families.count(name) > 0;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t pos = name.rfind(suffix);
      if (!declared && pos != std::string::npos &&
          pos + std::string(suffix).size() == name.size()) {
        declared = typed_families.count(name.substr(0, pos)) > 0;
      }
    }
    EXPECT_TRUE(declared) << "undeclared family for sample: " << line;
    // The value must parse as a number.
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
  // The headline families must all be present.
  for (const char* family :
       {"trel_reach_queries_total", "trel_batches_total",
        "trel_publishes_total", "trel_batch_latency_microseconds",
        "trel_publish_phase_microseconds", "trel_snapshot_epoch",
        "trel_simd_level", "trel_trace_sampled_total",
        "trel_slow_queries_total"}) {
    EXPECT_EQ(typed_families.count(family), 1u) << family;
  }
}

TEST(ExpositionTest, StatuszEmbedsMetricsLine) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(80, 2.0, 5)).ok());
  const std::string statusz = RenderStatusz(service);
  EXPECT_NE(statusz.find("trel query service status"), std::string::npos);
  EXPECT_NE(statusz.find("epoch: 1"), std::string::npos);
  // The machine-checkable raw counter line (scraped by tools/obs_check.py).
  EXPECT_NE(statusz.find("metrics: epoch=1 "), std::string::npos);
  EXPECT_NE(statusz.find("publish_phases_avg_us{optimal_full}:"),
            std::string::npos);
  EXPECT_NE(statusz.find("publish_strategy: last="), std::string::npos);
}

TEST(ExpositionTest, TracezListsRecordsAndSlowQueries) {
  ServiceOptions options;
  options.trace_sample_period = 1;
  options.slow_batch_micros = 1;  // Every batch is "slow".
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(60, 2.0, 9)).ok());
  (void)service.Reaches(0, 59);
  // Big enough that the batch always clears the 1us slow threshold.
  std::vector<std::pair<NodeId, NodeId>> pairs(50000, {0, 59});
  (void)service.BatchReaches(pairs);
  const std::string tracez = RenderTracez(service);
  EXPECT_NE(tracez.find("sample_period: 1"), std::string::npos);
  EXPECT_NE(tracez.find("seq=0"), std::string::npos);
  EXPECT_NE(tracez.find("tag="), std::string::npos);
  EXPECT_NE(tracez.find("batch n=50000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HttpServer

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(HttpServerTest, ServesRegisteredRoutes) {
  HttpServer server;
  server.Handle("/hello", []() { return std::string("hi there\n"); });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string ok = HttpGet(server.port(), "/hello");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("hi there"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length:"), std::string::npos);

  // Query strings are stripped before routing.
  EXPECT_NE(HttpGet(server.port(), "/hello?x=1").find("200 OK"),
            std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("/hello"), std::string::npos);  // Endpoint list.

  server.Stop();
  server.Stop();  // Idempotent.
}

// ---------------------------------------------------------------------------
// Service-level tracing

TEST(QueryServiceObsTest, SampledSinglesMatchGroundTruth) {
  Digraph graph = RandomDag(150, 2.5, 21);
  ReachabilityMatrix matrix(graph);
  ServiceOptions options;
  options.trace_sample_period = 1;  // Trace everything.
  QueryService service(options);
  ASSERT_TRUE(service.Load(graph).ok());

  Random rng(99);
  std::vector<std::pair<NodeId, NodeId>> queried;
  for (int i = 0; i < 64; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64() % 150);
    const NodeId v = static_cast<NodeId>(rng.NextUint64() % 150);
    queried.emplace_back(u, v);
    EXPECT_EQ(service.Reaches(u, v), matrix.Reaches(u, v));
  }

  const std::vector<TraceRecord> records = service.tracer().Drain();
  ASSERT_EQ(records.size(), queried.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].source, queried[i].first);
    EXPECT_EQ(records[i].target, queried[i].second);
    EXPECT_EQ(records[i].answer,
              matrix.Reaches(queried[i].first, queried[i].second));
    EXPECT_EQ(records[i].epoch, 1u);
    EXPECT_FALSE(records[i].from_batch);
  }
}

TEST(QueryServiceObsTest, TraceTagsDistinguishDecisionPaths) {
  Digraph graph = RandomDag(800, 4.0, 13);
  ReachabilityMatrix matrix(graph);
  ServiceOptions options;
  options.trace_sample_period = 1;
  QueryService service(options);
  ASSERT_TRUE(service.Load(graph).ok());

  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64() % 800);
    const NodeId v = static_cast<NodeId>(rng.NextUint64() % 800);
    (void)service.Reaches(u, v);
  }
  const auto tags = service.tracer().TagCounts();
  // A random workload on a DAG of this size must exercise at least the
  // slot fast path and the coverage-filter reject; extras descents show
  // up whenever some node's interval set spills past the inline slot.
  EXPECT_GT(tags[static_cast<int>(ProbeTag::kSlot)], 0u);
  EXPECT_GT(tags[static_cast<int>(ProbeTag::kFilterReject)], 0u);

  // Overlay-decided queries carry their own tag: publish a delta, then
  // query FROM the changed node (gap numbering leaves the parent's label
  // untouched, so only the new leaf resolves through the overlay).
  auto leaf = service.AddLeafUnder(0);
  ASSERT_TRUE(leaf.ok());
  service.Publish();
  EXPECT_TRUE(service.Reaches(0, leaf.value()));
  EXPECT_FALSE(service.Reaches(leaf.value(), 0));
  const std::vector<TraceRecord> records = service.tracer().Drain();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().source, leaf.value());
  EXPECT_EQ(records.back().tag, ProbeTag::kOverlay);
  EXPECT_EQ(records.back().epoch, 2u);
}

TEST(QueryServiceObsTest, SampledBatchEmitsBatchRecords) {
  ServiceOptions options;
  options.trace_sample_period = 1;
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(200, 2.0, 31)).ok());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(static_cast<NodeId>(i % 200),
                       static_cast<NodeId>((i * 3) % 200));
  }
  (void)service.BatchReaches(pairs);
  const std::vector<TraceRecord> records = service.tracer().Drain();
  ASSERT_FALSE(records.empty());
  int batch_records = 0;
  for (const TraceRecord& r : records) {
    if (!r.from_batch) continue;
    ++batch_records;
    EXPECT_LT(r.source, 200);
    EXPECT_LT(r.target, 200);
  }
  // A sampled 256-query batch contributes a strided subset (up to 32).
  EXPECT_GT(batch_records, 0);
  EXPECT_LE(batch_records, 32);
}

TEST(QueryServiceObsTest, SlowBatchLandsInSlowLog) {
  ServiceOptions options;
  options.slow_batch_micros = 1;  // Everything qualifies.
  QueryService service(options);
  ASSERT_TRUE(service.Load(RandomDag(100, 2.0, 17)).ok());
  std::vector<std::pair<NodeId, NodeId>> pairs(500, {0, 99});
  (void)service.BatchReaches(pairs);
  const std::vector<SlowQueryEntry> recent = service.slow_log().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].is_batch);
  EXPECT_EQ(recent[0].num_queries, 500);
  EXPECT_EQ(recent[0].source, 0);
  EXPECT_EQ(recent[0].target, 99);
  EXPECT_EQ(recent[0].epoch, 1u);
  EXPECT_EQ(service.slow_log().TotalRecorded(), 1);
}

TEST(QueryServiceObsTest, PublishSpansSplitFullVsDelta) {
  QueryService service;
  ASSERT_TRUE(service.Load(RandomDag(400, 3.0, 19)).ok());  // Full export.
  auto leaf = service.AddLeafUnder(0);
  ASSERT_TRUE(leaf.ok());
  service.Publish();  // Delta export.

  // Two full publishes (the constructor's empty bootstrap + the Load —
  // both optimal_full: a random DAG this size is chain-ineligible) and
  // one delta.
  const ServiceMetrics::View view = service.Metrics();
  ASSERT_EQ(view.publishes_optimal_full, 2);
  ASSERT_EQ(view.publishes_delta, 1);
  ASSERT_EQ(view.publishes_chain_full, 0);

  const std::vector<PublishSpan> spans = service.span_log().Recent();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].strategy, PublishStrategy::kOptimalFull);
  EXPECT_EQ(spans[0].epoch, 0u);
  EXPECT_EQ(spans[1].strategy, PublishStrategy::kOptimalFull);
  EXPECT_EQ(spans[1].epoch, 1u);
  EXPECT_EQ(spans[2].strategy, PublishStrategy::kDelta);
  EXPECT_EQ(spans[2].epoch, 2u);
  for (const PublishSpan& span : spans) {
    int64_t phase_sum = 0;
    for (int p = 0; p < kNumPublishPhases; ++p) {
      EXPECT_GE(span.phase_micros[p], 0);
      phase_sum += span.phase_micros[p];
    }
    // Phases never account for more than the whole publish.
    EXPECT_LE(phase_sum, span.total_micros + 1);
  }
  // Delta publishes never build an arena, recompute stats, or relabel.
  EXPECT_EQ(
      spans[2].phase_micros[static_cast<int>(PublishPhase::kArenaBuild)], 0);
  EXPECT_EQ(spans[2].phase_micros[static_cast<int>(PublishPhase::kStats)], 0);
  EXPECT_EQ(spans[2].phase_micros[static_cast<int>(PublishPhase::kRebuild)],
            0);
}

// ---------------------------------------------------------------------------
// Small-batch bypass (satellite): batches at or below the bypass
// threshold skip the grouped pipeline entirely — confirmed through the
// tracer tags, which can only say kGroupReject when grouping ran.

TEST(SmallBatchBypassTest, SmallBatchesNeverGroupAndMatchGroundTruth) {
  Digraph graph = RandomDag(1200, 4.0, 23);
  ReachabilityMatrix matrix(graph);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());

  // 128 pairs sorted by source with long same-source runs — exactly the
  // shape the grouped path would pounce on above the threshold.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int s = 0; s < 4; ++s) {
    for (int t = 0; t < 32; ++t) {
      pairs.emplace_back(static_cast<NodeId>(s * 17),
                         static_cast<NodeId>((t * 37) % 1200));
    }
  }
  ASSERT_EQ(pairs.size(), 128u);

  std::vector<uint8_t> out(pairs.size(), 0);
  std::vector<uint8_t> tags(pairs.size(), 0);
  BatchKernelStats stats;
  closure->BatchReachesTraced(pairs.data(),
                              static_cast<int64_t>(pairs.size()), out.data(),
                              &stats, tags.data());

  EXPECT_EQ(stats.group_rejects, 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(out[i] != 0, matrix.Reaches(pairs[i].first, pairs[i].second))
        << "pair " << i;
    EXPECT_NE(tags[i], static_cast<uint8_t>(ProbeTag::kGroupReject));
    // The bypass shares the single-query control flow, so its tags must
    // agree with the traced scalar path.
    ProbeTrace trace;
    (void)closure->ReachesTraced(pairs[i].first, pairs[i].second, &trace);
    EXPECT_EQ(tags[i], static_cast<uint8_t>(trace.tag)) << "pair " << i;
  }
}

TEST(SmallBatchBypassTest, LargeBatchesStillGroup) {
  // Same run-heavy shape, scaled past the bypass threshold: the grouped
  // pipeline must engage (visible as group-rejected queries for
  // definitely-unreachable same-source runs).
  Digraph graph = RandomDag(1200, 4.0, 23);
  ReachabilityMatrix matrix(graph);
  auto closure = CompressedClosure::Build(graph);
  ASSERT_TRUE(closure.ok());

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int s = 0; s < 16; ++s) {
    for (int t = 0; t < 64; ++t) {
      pairs.emplace_back(static_cast<NodeId>(1199 - s),
                         static_cast<NodeId>(t));
    }
  }
  std::vector<uint8_t> out(pairs.size(), 0);
  std::vector<uint8_t> tags(pairs.size(), 0);
  BatchKernelStats stats;
  closure->BatchReachesTraced(pairs.data(),
                              static_cast<int64_t>(pairs.size()), out.data(),
                              &stats, tags.data());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(out[i] != 0, matrix.Reaches(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
}

}  // namespace
}  // namespace trel

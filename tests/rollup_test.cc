// Tests for the windowed latency engine (obs/rollup.h) and the anomaly
// flight recorder (obs/flight_recorder.h).  Both take an injectable
// monotonic clock, so every minute boundary and detector threshold here
// is exact, not sleep-based.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/rollup.h"
#include "obs/slow_log.h"

namespace trel {
namespace {

// NowFn is a plain function pointer, so the fake clock lives in a
// file-scope atomic the tests advance directly.
std::atomic<int64_t> g_fake_nanos{0};

int64_t FakeNow() { return g_fake_nanos.load(std::memory_order_relaxed); }

void SetMinute(int64_t minute) {
  g_fake_nanos.store(minute * LatencyRollup::kNanosPerMinute,
                     std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// LatencyRollup

TEST(LatencyRollupTest, EmptyWindowReportsZeros) {
  SetMinute(10);
  LatencyRollup rollup({"a", "b"}, &FakeNow);
  const LatencyRollup::WindowStats stats = rollup.Window(0, 1);
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.p50_us, 0.0);
  EXPECT_EQ(stats.p999_us, 0.0);
}

TEST(LatencyRollupTest, RecordsFoldIntoCurrentMinuteWindow) {
  SetMinute(10);
  LatencyRollup rollup({"a"}, &FakeNow);
  for (int i = 0; i < 100; ++i) rollup.Record(0, 1000);  // 1 us each.
  const LatencyRollup::WindowStats stats = rollup.Window(0, 1);
  EXPECT_EQ(stats.count, 100);
  // 1000 ns lands in bucket [992, 1024); the reported quantile is the
  // bucket's upper edge, 1024 ns = 1.024 us.
  EXPECT_DOUBLE_EQ(stats.p50_us, 1.024);
  EXPECT_DOUBLE_EQ(stats.p99_us, 1.024);
  EXPECT_DOUBLE_EQ(stats.p999_us, 1.024);
}

TEST(LatencyRollupTest, MinuteRotationSplitsWindows) {
  SetMinute(10);
  LatencyRollup rollup({"a"}, &FakeNow);
  for (int i = 0; i < 50; ++i) rollup.Record(0, 1000);
  SetMinute(11);
  for (int i = 0; i < 30; ++i) rollup.Record(0, 2000);
  // The 1m window covers only the current minute.
  EXPECT_EQ(rollup.Window(0, 1).count, 30);
  // A 2m (and the exported 5m) window folds both minutes.
  EXPECT_EQ(rollup.Window(0, 2).count, 80);
  EXPECT_EQ(rollup.Window(0, 5).count, 80);
}

TEST(LatencyRollupTest, SkipMinutesYieldsTrailingBaseline) {
  SetMinute(10);
  LatencyRollup rollup({"a"}, &FakeNow);
  for (int i = 0; i < 50; ++i) rollup.Record(0, 1000);
  SetMinute(11);
  for (int i = 0; i < 30; ++i) rollup.Record(0, 2000);
  // skip_minutes=1 excludes the current minute: only minute 10 remains.
  const LatencyRollup::WindowStats baseline = rollup.Window(0, 1, 1);
  EXPECT_EQ(baseline.count, 50);
}

TEST(LatencyRollupTest, StaleMinutesFallOutOfEveryWindow) {
  SetMinute(0);
  LatencyRollup rollup({"a"}, &FakeNow);
  for (int i = 0; i < 10; ++i) rollup.Record(0, 1000);
  // Advance past the largest window without recording: the stamped
  // minute 0 is older than any window base, so nothing folds.
  SetMinute(7);
  EXPECT_EQ(rollup.Window(0, 5).count, 0);
  // The ring cell for minute 8 is minute 0's slot (kRingMinutes = 8);
  // the first record of the new minute reclaims and clears it.
  SetMinute(8);
  rollup.Record(0, 4000);
  EXPECT_EQ(rollup.Window(0, 5).count, 1);
}

TEST(LatencyRollupTest, QuantilesAreOrderedAcrossASpread) {
  SetMinute(3);
  LatencyRollup rollup({"a"}, &FakeNow);
  // 900 fast, 90 medium, 10 slow: p50 in the fast bucket, p99 in the
  // medium one, p999 in the slow one.
  for (int i = 0; i < 900; ++i) rollup.Record(0, 1000);        // ~1 us
  for (int i = 0; i < 90; ++i) rollup.Record(0, 100 * 1000);   // ~100 us
  for (int i = 0; i < 10; ++i) rollup.Record(0, 10 * 1000 * 1000);  // ~10 ms
  const LatencyRollup::WindowStats stats = rollup.Window(0, 1);
  EXPECT_EQ(stats.count, 1000);
  EXPECT_LE(stats.p50_us, stats.p99_us);
  EXPECT_LE(stats.p99_us, stats.p999_us);
  EXPECT_LT(stats.p50_us, 10.0);
  EXPECT_GT(stats.p99_us, 50.0);
  EXPECT_GT(stats.p999_us, 5000.0);
}

TEST(LatencyRollupTest, WindowsResolveATenPercentShift) {
  SetMinute(4);
  // 1000 -> 1100 ns crosses a power of two, 1100 -> 1210 ns does not;
  // both shifts must move p99, and each p99 must sit at most one
  // 1/16-wide bucket above the recorded value.
  const int64_t kNanos[] = {1000, 1100, 1210};
  LatencyRollup rollup({"a", "b", "c"}, &FakeNow);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 100; ++i) rollup.Record(s, kNanos[s]);
  }
  double previous_p99 = 0.0;
  for (int s = 0; s < 3; ++s) {
    const double p99 = rollup.Window(s, 1).p99_us;
    const double value_us = static_cast<double>(kNanos[s]) / 1000.0;
    EXPECT_GE(p99, value_us) << kNanos[s] << " ns";
    EXPECT_LE(p99, value_us * 1.0625) << kNanos[s] << " ns";
    EXPECT_GT(p99, previous_p99) << kNanos[s] << " ns";
    previous_p99 = p99;
  }
}

TEST(LatencyRollupTest, OneSecondRecordReadsBackWithinOneSixteenth) {
  SetMinute(6);
  LatencyRollup rollup({"a"}, &FakeNow);
  rollup.Record(0, 1000 * 1000 * 1000);
  const LatencyRollup::WindowStats stats = rollup.Window(0, 1);
  EXPECT_EQ(stats.count, 1);
  EXPECT_GE(stats.p99_us, 1e6);
  EXPECT_LE(stats.p99_us, 1e6 * 1.0625);
}

TEST(LatencyRollupTest, OutOfRangeSeriesAndNegativeNanosAreSafe) {
  SetMinute(5);
  LatencyRollup rollup({"a"}, &FakeNow);
  rollup.Record(-1, 1000);
  rollup.Record(7, 1000);
  rollup.Record(0, -12345);  // Clamped to 0 ns.
  EXPECT_EQ(rollup.Window(-1, 1).count, 0);
  EXPECT_EQ(rollup.Window(7, 1).count, 0);
  const LatencyRollup::WindowStats stats = rollup.Window(0, 1);
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.p99_us, 0.001);  // Bucket [0, 1) ns.
}

TEST(LatencyRollupTest, ExportedWindowListIsAscending) {
  const std::vector<int>& windows = LatencyRollup::WindowMinutes();
  ASSERT_GE(windows.size(), 2u);
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_LT(windows[i - 1], windows[i]);
  }
}

// Writers hammer Record across two series while a reader folds windows
// and another thread flips the minute to force rotation races.  Run
// under TSan by ci.sh --obs; the assertion here is only sanity (the
// rotation instant may drop a bounded number of racing records).
TEST(LatencyRollupTest, ConcurrentWritersAndReaders) {
  SetMinute(100);
  LatencyRollup rollup({"a", "b"}, &FakeNow);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread rotator([&stop] {
    int64_t minute = 100;
    while (!stop.load(std::memory_order_relaxed)) {
      SetMinute(++minute % 3 + 100);  // Bounce across three minutes.
      std::this_thread::yield();
    }
  });
  std::thread reader([&rollup, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rollup.Window(0, 1);
      (void)rollup.Window(1, 5, 1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rollup, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rollup.Record(t % 2, 1000 + i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  rotator.join();
  reader.join();
  SetMinute(100);  // Restore a quiet clock for the fold below.
  const int64_t total =
      rollup.Window(0, 5).count + rollup.Window(1, 5).count;
  EXPECT_GE(total, 0);
  EXPECT_LE(total, int64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, ForceCaptureRunsBuilderAndFreezesWindows) {
  SetMinute(10);
  LatencyRollup rollup({"a", "b"}, &FakeNow);
  rollup.Record(0, 1000);
  FlightRecorder::Options options;
  FlightRecorder recorder(options, &FakeNow);
  recorder.Attach(&rollup, [](FlightCapture* capture) {
    TraceRecord r;
    r.source = 7;
    r.target = 9;
    r.answer = true;
    capture->traces.push_back(r);
    capture->metrics = "epoch=3 nodes=10";
  });
  EXPECT_TRUE(recorder.ForceCapture("forced_test_trigger"));
  EXPECT_EQ(recorder.TotalTriggered(), 1);
  const std::vector<FlightCapture> captures = recorder.Captures();
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].reason, "forced_test_trigger");
  ASSERT_EQ(captures[0].traces.size(), 1u);
  EXPECT_EQ(captures[0].traces[0].source, 7);
  // One window row per series x exported window.
  EXPECT_EQ(captures[0].windows.size(),
            2 * LatencyRollup::WindowMinutes().size());
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"total_triggered\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"forced_test_trigger\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\":\"epoch=3 nodes=10\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"window\":\"5m\""), std::string::npos);
}

TEST(FlightRecorderTest, PublishStallFiresOncePerEpoch) {
  SetMinute(10);
  FlightRecorder recorder(FlightRecorder::Options(), &FakeNow);
  FlightRecorder::Inputs inputs;
  inputs.has_publish = true;
  inputs.last_publish_micros = 2 * 1000 * 1000;  // 2 s > 1 s default.
  inputs.last_publish_epoch = 5;
  EXPECT_TRUE(recorder.Check(inputs));
  EXPECT_EQ(recorder.Captures().back().reason, "publish_stall");
  // Same stalled epoch again: no second capture.
  EXPECT_FALSE(recorder.Check(inputs));
  // A new stalled epoch re-arms the detector.
  inputs.last_publish_epoch = 6;
  EXPECT_TRUE(recorder.Check(inputs));
  EXPECT_EQ(recorder.TotalTriggered(), 2);
}

TEST(FlightRecorderTest, RejectedBurstComparesDeltasNotTotals) {
  SetMinute(10);
  FlightRecorder recorder(FlightRecorder::Options(), &FakeNow);
  FlightRecorder::Inputs inputs;
  inputs.batches_rejected = 1000;  // Large total; first check only seeds.
  EXPECT_FALSE(recorder.Check(inputs));
  inputs.batches_rejected = 1007;  // +7 < default burst of 8.
  EXPECT_FALSE(recorder.Check(inputs));
  inputs.batches_rejected = 1015;  // +8 since the last check.
  EXPECT_TRUE(recorder.Check(inputs));
  EXPECT_EQ(recorder.Captures().back().reason, "rejected_burst");
}

TEST(FlightRecorderTest, BoundarySpikeComparesDeltas) {
  SetMinute(10);
  FlightRecorder::Options options;
  options.boundary_spike = 4;
  FlightRecorder recorder(options, &FakeNow);
  FlightRecorder::Inputs inputs;
  inputs.boundary_republishes = 50;
  EXPECT_FALSE(recorder.Check(inputs));  // Seeds.
  inputs.boundary_republishes = 54;
  EXPECT_TRUE(recorder.Check(inputs));
  EXPECT_EQ(recorder.Captures().back().reason, "boundary_spike");
}

TEST(FlightRecorderTest, P99DriftFiresDeterministically) {
  FlightRecorder::Options options;
  options.p99_drift_factor = 4.0;
  options.min_window_count = 64;
  LatencyRollup rollup({"a"}, &FakeNow);
  FlightRecorder recorder(options, &FakeNow);
  recorder.Attach(&rollup, [](FlightCapture*) {});
  // Baseline: four quiet minutes at ~1 us.
  for (int64_t minute = 10; minute <= 13; ++minute) {
    SetMinute(minute);
    for (int i = 0; i < 32; ++i) rollup.Record(0, 1000);
  }
  // Current minute: enough samples, 1000x slower.
  SetMinute(14);
  for (int i = 0; i < 64; ++i) rollup.Record(0, 1000 * 1000);
  FlightRecorder::Inputs inputs;
  EXPECT_TRUE(recorder.Check(inputs));
  EXPECT_EQ(recorder.Captures().back().reason, "p99_drift");
  // Re-armed at most once per minute.
  EXPECT_FALSE(recorder.Check(inputs));
  // The next minute the anomalous minute 14 is part of the trailing
  // baseline, so the load must degrade a further 4x over it to fire
  // again — a sustained-but-stable anomaly does not flood the ring.
  SetMinute(15);
  for (int i = 0; i < 64; ++i) rollup.Record(0, 20 * 1000 * 1000);
  EXPECT_TRUE(recorder.Check(inputs));
}

// The default detector against a fake clock: four baseline minutes of
// 250 records at 1000 ns, then `current_count` records at
// `current_nanos` in the current minute.
bool DefaultDriftFires(int64_t current_nanos, int current_count) {
  LatencyRollup rollup({"a"}, &FakeNow);
  FlightRecorder recorder(FlightRecorder::Options(), &FakeNow);
  recorder.Attach(&rollup, [](FlightCapture*) {});
  for (int64_t minute = 30; minute <= 33; ++minute) {
    SetMinute(minute);
    for (int i = 0; i < 250; ++i) rollup.Record(0, 1000);
  }
  SetMinute(34);
  for (int i = 0; i < current_count; ++i) rollup.Record(0, current_nanos);
  return recorder.Check(FlightRecorder::Inputs());
}

TEST(FlightRecorderTest, DefaultDriftFiresOnAQuarterShift) {
  EXPECT_TRUE(DefaultDriftFires(1250, 1000));
}

TEST(FlightRecorderTest, DefaultDriftIgnoresOneBucketWobble) {
  // 1050 ns is one sub-bucket above 1000 ns ([1024, 1088) vs [992, 1024)).
  EXPECT_FALSE(DefaultDriftFires(1050, 1000));
}

TEST(FlightRecorderTest, DefaultDriftNeedsAThousandSamples) {
  // Even a 10x shift stays quiet while the current window holds 999.
  EXPECT_FALSE(DefaultDriftFires(10 * 1000, 999));
}

TEST(FlightRecorderTest, DriftRequiresMinimumWindowCounts) {
  FlightRecorder::Options options;
  options.min_window_count = 64;
  LatencyRollup rollup({"a"}, &FakeNow);
  FlightRecorder recorder(options, &FakeNow);
  recorder.Attach(&rollup, [](FlightCapture*) {});
  // Thin baseline (under min_window_count): never fires, however bad
  // the current minute looks.
  SetMinute(20);
  for (int i = 0; i < 8; ++i) rollup.Record(0, 1000);
  SetMinute(21);
  for (int i = 0; i < 64; ++i) rollup.Record(0, 1000 * 1000);
  EXPECT_FALSE(recorder.Check(FlightRecorder::Inputs()));
  EXPECT_EQ(recorder.TotalTriggered(), 0);
}

TEST(FlightRecorderTest, CaptureRingIsBounded) {
  SetMinute(10);
  FlightRecorder::Options options;
  options.max_captures = 2;
  FlightRecorder recorder(options, &FakeNow);
  recorder.ForceCapture("one");
  recorder.ForceCapture("two");
  recorder.ForceCapture("three");
  EXPECT_EQ(recorder.TotalTriggered(), 3);
  const std::vector<FlightCapture> captures = recorder.Captures();
  ASSERT_EQ(captures.size(), 2u);
  EXPECT_EQ(captures[0].reason, "two");
  EXPECT_EQ(captures[1].reason, "three");
  // Sequences stay monotone across evictions.
  EXPECT_LT(captures[0].sequence, captures[1].sequence);
}

// ---------------------------------------------------------------------------
// SlowQueryEntry rendering (shared by /tracez and the flight recorder)

TEST(SlowQueryEntryTest, SingleToStringWithoutShards) {
  SlowQueryEntry entry;
  entry.sequence = 3;
  entry.epoch = 9;
  entry.source = 4;
  entry.target = 17;
  entry.micros = 12000;
  entry.answer = true;
  entry.tag = ProbeTag::kSlot;
  EXPECT_EQ(entry.ToString(),
            "seq=3 epoch=9 single n=1 first=(4,17) us=12000 answer=1 "
            "tag=slot");
}

TEST(SlowQueryEntryTest, SingleToStringWithShardAttribution) {
  SlowQueryEntry entry;
  entry.sequence = 8;
  entry.epoch = 2;
  entry.source = 1;
  entry.target = 5;
  entry.micros = 15000;
  entry.answer = false;
  entry.tag = ProbeTag::kBoundaryBitset;
  entry.source_shard = 0;
  entry.target_shard = 3;
  entry.cross_shard = true;
  EXPECT_EQ(entry.ToString(),
            "seq=8 epoch=2 single n=1 first=(1,5) us=15000 answer=0 "
            "tag=boundary shards=(0,3) cross=1");
}

TEST(SlowQueryEntryTest, BatchToStringCarriesKernelStats) {
  SlowQueryEntry entry;
  entry.sequence = 11;
  entry.epoch = 4;
  entry.is_batch = true;
  entry.source = 2;
  entry.target = 6;
  entry.num_queries = 256;
  entry.micros = 250000;
  entry.stats.fast_path = 200;
  entry.stats.filter_rejects = 40;
  entry.stats.group_rejects = 10;
  entry.stats.extras_searches = 6;
  EXPECT_EQ(entry.ToString(),
            "seq=11 epoch=4 batch n=256 first=(2,6) us=250000 "
            "stats[fast=200 filter=40 group=10 extras=6]");
}

}  // namespace
}  // namespace trel

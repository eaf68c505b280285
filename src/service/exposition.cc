#include "service/exposition.h"

#include <sstream>
#include <string>
#include <vector>

#include "obs/prometheus.h"
#include "service/query_service.h"
#include "service/sharded_service.h"

namespace trel {

namespace {

// Publish-span kind labels follow the strategy enum order
// (obs/span_log.h): 0 delta, 1 chain_full, 2 optimal_full.
const char* KindName(int kind) {
  return PublishStrategyName(static_cast<PublishStrategy>(kind));
}

std::string KindPhaseLabels(int kind, int phase) {
  return std::string("kind=\"") + KindName(kind) + "\",phase=\"" +
         PublishPhaseName(static_cast<PublishPhase>(phase)) + "\"";
}

// Windowed latency families (obs/rollup.h): per series x window, the
// three quantile gauges plus the window's observation count.  Sample
// lines of a family must stay contiguous under its header, so the two
// families iterate the series separately.
void AppendLatencyWindows(PrometheusText& out, const LatencyRollup& rollup) {
  out.Family("trel_latency_window_us",
             "Windowed latency quantiles from the per-minute rollup "
             "(upper edge of the deciding log-linear bucket, at most "
             "6.25% above the value).",
             "gauge");
  for (int s = 0; s < rollup.num_series(); ++s) {
    for (const int minutes : LatencyRollup::WindowMinutes()) {
      const LatencyRollup::WindowStats stats = rollup.Window(s, minutes);
      const std::string base =
          PrometheusText::Label("series", rollup.series_name(s)) +
          ",window=\"" + std::to_string(minutes) + "m\",quantile=\"";
      out.Sample("trel_latency_window_us", base + "p50\"", stats.p50_us);
      out.Sample("trel_latency_window_us", base + "p99\"", stats.p99_us);
      out.Sample("trel_latency_window_us", base + "p999\"", stats.p999_us);
    }
  }
  out.Family("trel_latency_window_samples",
             "Observations inside each sliding latency window.", "gauge");
  for (int s = 0; s < rollup.num_series(); ++s) {
    for (const int minutes : LatencyRollup::WindowMinutes()) {
      out.Sample("trel_latency_window_samples",
                 PrometheusText::Label("series", rollup.series_name(s)) +
                     ",window=\"" + std::to_string(minutes) + "m\"",
                 rollup.Window(s, minutes).count);
    }
  }
}

// The /statusz `latency_windows:` block: one line per series x window.
void AppendLatencyWindowsStatus(std::ostringstream& out,
                                const LatencyRollup& rollup) {
  out << "latency_windows:\n";
  for (int s = 0; s < rollup.num_series(); ++s) {
    for (const int minutes : LatencyRollup::WindowMinutes()) {
      const LatencyRollup::WindowStats stats = rollup.Window(s, minutes);
      out << "  series=" << rollup.series_name(s) << " window=" << minutes
          << "m count=" << stats.count << " p50_us=" << stats.p50_us
          << " p99_us=" << stats.p99_us << " p999_us=" << stats.p999_us
          << "\n";
    }
  }
}

// Tracer-summary and slow-log families shared by the monolithic and
// sharded metricsz pages.
void AppendTracerFamilies(PrometheusText& out, const QueryTracer& tracer) {
  out.Family("trel_trace_sample_period",
             "Query-tracer sampling period (0 = off).", "gauge");
  out.Sample("trel_trace_sample_period", "",
             static_cast<int64_t>(tracer.sample_period()));
  out.Family("trel_trace_sampled_total",
             "Queries sampled into the tracer since startup.", "counter");
  out.Sample("trel_trace_sampled_total", "",
             static_cast<int64_t>(tracer.TotalSampled()));
  out.Family("trel_trace_records_total",
             "Sampled trace records by deciding probe path.", "counter");
  const std::array<uint64_t, kNumProbeTags> tags = tracer.TagCounts();
  for (int t = 0; t < kNumProbeTags; ++t) {
    out.Sample(
        "trel_trace_records_total",
        PrometheusText::Label("tag", ProbeTagName(static_cast<ProbeTag>(t))),
        static_cast<int64_t>(tags[t]));
  }
}

void AppendSlowLogFamilies(PrometheusText& out, const SlowQueryLog& slow) {
  out.Family("trel_slow_queries_total",
             "Queries/batches admitted to the slow-query log.", "counter");
  out.Sample("trel_slow_queries_total", "", slow.TotalRecorded());
}

void AppendFlightFamilies(PrometheusText& out, const FlightRecorder& flight) {
  out.Family("trel_flight_captures_total",
             "Anomaly flight-recorder captures frozen since startup.",
             "counter");
  out.Sample("trel_flight_captures_total", "", flight.TotalTriggered());
}

std::string RenderMetricsz(const ServiceMetrics::View& view,
                           const QueryTracer& tracer, const SpanLog& spans,
                           const SlowQueryLog& slow,
                           const LatencyRollup& rollup,
                           const FlightRecorder& flight) {
  PrometheusText out;

  // --- ServiceMetrics counters -------------------------------------------
  out.Family("trel_reach_queries_total",
             "Point reachability lookups served (singles and batched).",
             "counter");
  out.Sample("trel_reach_queries_total", "", view.reach_queries);
  out.Family("trel_successor_queries_total",
             "Successor enumeration queries served.", "counter");
  out.Sample("trel_successor_queries_total", "", view.successor_queries);
  out.Family("trel_batches_total", "Batched query calls served.", "counter");
  out.Sample("trel_batches_total", "", view.batches);
  out.Family("trel_batch_micros_total",
             "Wall microseconds spent inside batched query calls.",
             "counter");
  out.Sample("trel_batch_micros_total", "", view.batch_micros_total);
  out.Family("trel_batches_rejected_total",
             "Batches refused by admission control "
             "(max_inflight_batches).",
             "counter");
  out.Sample("trel_batches_rejected_total", "", view.batches_rejected);
  out.Family("trel_publishes_total",
             "Snapshot publishes, split by publish strategy.", "counter");
  out.Sample("trel_publishes_total", "kind=\"delta\"", view.publishes_delta);
  out.Sample("trel_publishes_total", "kind=\"chain_full\"",
             view.publishes_chain_full);
  out.Sample("trel_publishes_total", "kind=\"optimal_full\"",
             view.publishes_optimal_full);
  out.Family("trel_publishes_folded_total",
             "Full publishes that folded the dirty nodes into the previous "
             "base arena instead of rebuilding it.",
             "counter");
  out.Sample("trel_publishes_folded_total", "", view.publishes_folded);
  out.Family("trel_publish_micros_total",
             "Wall microseconds spent publishing, split by strategy.",
             "counter");
  out.Sample("trel_publish_micros_total", "kind=\"delta\"",
             view.publish_delta_micros_total);
  out.Sample("trel_publish_micros_total", "kind=\"chain_full\"",
             view.publish_chain_full_micros_total);
  out.Sample("trel_publish_micros_total", "kind=\"optimal_full\"",
             view.publish_optimal_full_micros_total);
  out.Family("trel_delta_nodes_total",
             "Changed-node entries shipped across all delta publishes.",
             "counter");
  out.Sample("trel_delta_nodes_total", "", view.delta_nodes_total);
  out.Family("trel_batch_kernel_outcomes_total",
             "Batched lookups by deciding path (see BatchKernelStats).",
             "counter");
  out.Sample("trel_batch_kernel_outcomes_total", "outcome=\"fast_path\"",
             view.batch_fast_path);
  out.Sample("trel_batch_kernel_outcomes_total", "outcome=\"filter_reject\"",
             view.batch_filter_rejects);
  out.Sample("trel_batch_kernel_outcomes_total", "outcome=\"group_reject\"",
             view.batch_group_rejects);
  out.Sample("trel_batch_kernel_outcomes_total", "outcome=\"extras_search\"",
             view.batch_extras_searches);

  // --- ServiceMetrics histograms -----------------------------------------
  out.Family("trel_batch_latency_microseconds",
             "Batched query call latency (power-of-two buckets).",
             "histogram");
  out.Histogram("trel_batch_latency_microseconds", "",
                view.batch_latency_histogram.data(),
                ServiceMetrics::kLatencyBuckets, view.batch_micros_total);
  out.Family("trel_publish_delta_nodes",
             "Changed-node entries per delta publish.", "histogram");
  out.Histogram("trel_publish_delta_nodes", "",
                view.delta_nodes_histogram.data(),
                ServiceMetrics::kDeltaNodeBuckets, view.delta_nodes_total);

  // --- Snapshot / dispatch gauges ----------------------------------------
  out.Family("trel_snapshot_epoch", "Epoch of the live snapshot.", "gauge");
  out.Sample("trel_snapshot_epoch", "",
             static_cast<int64_t>(view.current_epoch));
  out.Family("trel_snapshot_age_seconds",
             "Monotonic-clock age of the live snapshot.", "gauge");
  out.Sample("trel_snapshot_age_seconds", "", view.snapshot_age_seconds);
  out.Family("trel_snapshot_nodes", "Nodes in the live snapshot.", "gauge");
  out.Sample("trel_snapshot_nodes", "", view.snapshot_num_nodes);
  out.Family("trel_snapshot_intervals",
             "Compressed-closure intervals in the live snapshot.", "gauge");
  out.Sample("trel_snapshot_intervals", "", view.snapshot_total_intervals);
  out.Family("trel_snapshot_overlay_nodes",
             "Overlaid (delta) nodes in the live snapshot.", "gauge");
  out.Sample("trel_snapshot_overlay_nodes", "", view.snapshot_overlay_nodes);
  out.Family("trel_snapshot_arena_bytes",
             "Bytes pinned by the live snapshot's flat query arena.",
             "gauge");
  out.Sample("trel_snapshot_arena_bytes", "", view.snapshot_arena_bytes);
  out.Family("trel_snapshot_spare_arena_bytes",
             "Bytes held for the next fold: a retired folded arena no "
             "snapshot uses, at capacity.",
             "gauge");
  out.Sample("trel_snapshot_spare_arena_bytes", "", view.spare_arena_bytes);
  out.Family("trel_inflight_batches",
             "Batch calls executing right now (admission-slot occupancy).",
             "gauge");
  out.Sample("trel_inflight_batches", "", view.inflight_batches);
  out.Family("trel_simd_level",
             "Dispatched arena-kernel ISA tier (0=scalar,2=avx2).",
             "gauge");
  out.Sample("trel_simd_level",
             PrometheusText::Label("name", view.simd_level_name),
             static_cast<int64_t>(view.simd_level));
  out.Family("trel_publish_strategy",
             "Strategy of the most recent publish (by name label; value is "
             "the PublishStrategy enum, -1 before the first publish).",
             "gauge");
  {
    int64_t last = -1;
    for (int s = 0; s < kNumPublishStrategies; ++s) {
      if (view.last_publish_strategy ==
          PublishStrategyName(static_cast<PublishStrategy>(s))) {
        last = s;
      }
    }
    out.Sample("trel_publish_strategy",
               PrometheusText::Label("name", view.last_publish_strategy),
               last);
  }
  out.Family("trel_publish_intervals_last",
             "Snapshot interval count at the most recent full publish of "
             "each kind (chain-vs-optimal interval blowup numerator and "
             "denominator).",
             "gauge");
  out.Sample("trel_publish_intervals_last", "kind=\"chain_full\"",
             view.chain_full_intervals_last);
  out.Sample("trel_publish_intervals_last", "kind=\"optimal_full\"",
             view.optimal_full_intervals_last);
  out.Family("trel_chain_interval_blowup",
             "Last chain-full interval count over last optimal-full count "
             "(0 until both tiers have published).",
             "gauge");
  out.Sample("trel_chain_interval_blowup", "", view.chain_interval_blowup);

  // --- Publish-pipeline spans --------------------------------------------
  const SpanLog::Aggregate agg = spans.Read();
  out.Family("trel_publish_phase_micros_total",
             "Wall microseconds per publish phase, split by strategy.",
             "counter");
  for (int kind = 0; kind < kNumPublishStrategies; ++kind) {
    for (int phase = 0; phase < kNumPublishPhases; ++phase) {
      out.Sample("trel_publish_phase_micros_total",
                 KindPhaseLabels(kind, phase),
                 agg.phase_micros_total[kind][phase]);
    }
  }
  out.Family("trel_publish_phase_microseconds",
             "Per-publish phase latency (power-of-two buckets).",
             "histogram");
  for (int kind = 0; kind < kNumPublishStrategies; ++kind) {
    for (int phase = 0; phase < kNumPublishPhases; ++phase) {
      out.Histogram("trel_publish_phase_microseconds",
                    KindPhaseLabels(kind, phase),
                    agg.phase_histogram[kind][phase].data(), SpanLog::kBuckets,
                    agg.phase_micros_total[kind][phase]);
    }
  }

  // --- Tracer, slow-query log, windowed latency, flight recorder ----------
  AppendTracerFamilies(out, tracer);
  AppendSlowLogFamilies(out, slow);
  AppendLatencyWindows(out, rollup);
  AppendFlightFamilies(out, flight);
  return out.str();
}

std::string RenderStatusz(const ServiceMetrics::View& view,
                          const SpanLog& spans, const LatencyRollup& rollup) {
  std::ostringstream out;
  out << "trel query service status\n";
  out << "epoch: " << view.current_epoch << "\n";
  out << "snapshot_age_seconds: " << view.snapshot_age_seconds << "\n";
  out << "nodes: " << view.snapshot_num_nodes
      << "  intervals: " << view.snapshot_total_intervals
      << "  overlay_nodes: " << view.snapshot_overlay_nodes << "\n";
  out << "arena_bytes: " << view.snapshot_arena_bytes << "\n";
  out << "spare_arena_bytes: " << view.spare_arena_bytes << "\n";
  out << "simd: " << view.simd_level_name << " (level " << view.simd_level
      << ")\n";
  out << "queries: reach=" << view.reach_queries
      << " successor=" << view.successor_queries
      << " batches=" << view.batches << "\n";
  out << "publishes: full=" << view.publishes_full
      << " delta=" << view.publishes_delta
      << " (us: full=" << view.publish_full_micros_total
      << " delta=" << view.publish_delta_micros_total << ")\n";
  out << "publish_strategy: last=" << view.last_publish_strategy
      << " chain_full=" << view.publishes_chain_full
      << " optimal_full=" << view.publishes_optimal_full
      << " chain_blowup=" << view.chain_interval_blowup << "\n";
  out << "publishes_folded: " << view.publishes_folded << " of "
      << view.publishes_full << " full\n";
  const SpanLog::Aggregate agg = spans.Read();
  // Indexed by PublishStrategy, like the aggregate.
  const int64_t publishes[kNumPublishStrategies] = {
      view.publishes_delta, view.publishes_chain_full,
      view.publishes_optimal_full};
  for (int kind = 0; kind < kNumPublishStrategies; ++kind) {
    if (publishes[kind] == 0) continue;
    out << "publish_phases_avg_us{" << KindName(kind) << "}:";
    for (int phase = 0; phase < kNumPublishPhases; ++phase) {
      out << " " << PublishPhaseName(static_cast<PublishPhase>(phase)) << "="
          << agg.phase_micros_total[kind][phase] / publishes[kind];
    }
    out << "\n";
  }
  AppendLatencyWindowsStatus(out, rollup);
  // The raw counter line: /metricsz must agree with it field for field
  // (the --obs CI stage scrapes both and diffs them on a quiescent
  // server).
  out << "metrics: " << view.ToString() << "\n";
  return out.str();
}

std::string RenderTracez(const QueryTracer& tracer, const SlowQueryLog& slow) {
  std::ostringstream out;
  out << "sample_period: " << tracer.sample_period() << "\n";
  out << "sampled_total: " << tracer.TotalSampled() << "\n";
  const std::array<uint64_t, kNumProbeTags> tags = tracer.TagCounts();
  out << "tag_counts:";
  for (int t = 0; t < kNumProbeTags; ++t) {
    out << " " << ProbeTagName(static_cast<ProbeTag>(t)) << "=" << tags[t];
  }
  out << "\n";
  const std::vector<TraceRecord> records = tracer.Drain();
  out << "records: " << records.size() << " (oldest first)\n";
  for (const TraceRecord& r : records) {
    out << "seq=" << r.sequence << " epoch=" << r.epoch << " src=" << r.source
        << " dst=" << r.target << " answer=" << (r.answer ? 1 : 0)
        << " tag=" << ProbeTagName(r.tag) << " probes=" << r.extras_probes
        << " nanos=" << r.nanos << " batch=" << (r.from_batch ? 1 : 0);
    if (r.has_stages) {
      out << " shard=" << r.shard << " stages=[";
      for (int s = 0; s < kNumQueryStages; ++s) {
        if (s > 0) out << " ";
        out << QueryStageName(static_cast<QueryStage>(s)) << "="
            << r.stage_nanos[s];
      }
      out << "]";
    }
    out << "\n";
  }
  const std::vector<SlowQueryEntry> entries = slow.Recent();
  out << "slow_queries: " << entries.size() << " (total admitted "
      << slow.TotalRecorded() << ")\n";
  for (const SlowQueryEntry& e : entries) {
    out << e.ToString() << "\n";
  }
  return out.str();
}

}  // namespace

std::string RenderMetricsz(const QueryService& service) {
  // A metrics scrape doubles as a flight-recorder detector pass, so
  // anomalies are caught even when nobody polls /flightz.
  service.CheckFlightRecorder();
  return RenderMetricsz(service.Metrics(), service.tracer(),
                        service.span_log(), service.slow_log(),
                        service.rollup(), service.flight_recorder());
}

std::string RenderStatusz(const QueryService& service) {
  return RenderStatusz(service.Metrics(), service.span_log(),
                       service.rollup());
}

std::string RenderTracez(const QueryService& service) {
  return RenderTracez(service.tracer(), service.slow_log());
}

std::string RenderFlightz(const QueryService& service) {
  service.CheckFlightRecorder();
  return service.flight_recorder().ToJson();
}

std::string RenderMetricsz(const ShardedQueryService& service) {
  service.CheckFlightRecorder();
  PrometheusText out;
  const ShardedMetricsView view = service.MetricsView();

  // --- Boundary-layer families -------------------------------------------
  out.Family("trel_sharded_shards", "Configured shard count.", "gauge");
  out.Sample("trel_sharded_shards", "",
             static_cast<int64_t>(view.num_shards));
  out.Family("trel_sharded_epoch", "Global sharded publish epoch.", "gauge");
  out.Sample("trel_sharded_epoch", "", static_cast<int64_t>(view.epoch));
  out.Family("trel_sharded_nodes",
             "Nodes known to the published boundary snapshot.", "gauge");
  out.Sample("trel_sharded_nodes", "", view.num_nodes);
  out.Family("trel_boundary_hubs",
             "Hub nodes covering the cross-shard cut.", "gauge");
  out.Sample("trel_boundary_hubs", "", view.num_hubs);
  out.Family("trel_boundary_label_bytes",
             "Bytes of published boundary labels (hub out- and in-bitsets).",
             "gauge");
  out.Sample("trel_boundary_label_bytes", "", view.boundary_label_bytes);
  out.Family("trel_cross_shard_queries_total",
             "Reaches lookups whose endpoints lived in different shards.",
             "counter");
  out.Sample("trel_cross_shard_queries_total", "", view.cross_shard_queries);
  out.Family("trel_boundary_republishes_total",
             "Boundary snapshot publishes that rebuilt state.", "counter");
  out.Sample("trel_boundary_republishes_total", "", view.boundary_republishes);
  out.Family("trel_boundary_skips_total",
             "Boundary publishes skipped because nothing changed.",
             "counter");
  out.Sample("trel_boundary_skips_total", "", view.boundary_skips);
  out.Family("trel_hub_promotions_total",
             "Nodes promoted to hub by cross-shard arc inserts.", "counter");
  out.Sample("trel_hub_promotions_total", "", view.hub_promotions);

  // --- Per-shard families -------------------------------------------------
  // Sample lines of a family must stay contiguous under its header, so
  // iterate shards inside each family rather than the other way around.
  std::vector<ServiceMetrics::View> shard_views;
  std::vector<std::string> shard_labels;
  shard_views.reserve(service.num_shards());
  shard_labels.reserve(service.num_shards());
  for (int s = 0; s < service.num_shards(); ++s) {
    shard_views.push_back(service.shard(s).Metrics());
    shard_labels.push_back(
        PrometheusText::Label("shard", std::to_string(s)));
  }
  out.Family("trel_shard_publishes_total",
             "Per-shard snapshot publishes, split by strategy.", "counter");
  for (int s = 0; s < service.num_shards(); ++s) {
    out.Sample("trel_shard_publishes_total",
               shard_labels[s] + ",kind=\"delta\"",
               shard_views[s].publishes_delta);
    out.Sample("trel_shard_publishes_total",
               shard_labels[s] + ",kind=\"chain_full\"",
               shard_views[s].publishes_chain_full);
    out.Sample("trel_shard_publishes_total",
               shard_labels[s] + ",kind=\"optimal_full\"",
               shard_views[s].publishes_optimal_full);
  }
  out.Family("trel_shard_snapshot_epoch",
             "Epoch of each shard's live snapshot.", "gauge");
  for (int s = 0; s < service.num_shards(); ++s) {
    out.Sample("trel_shard_snapshot_epoch", shard_labels[s],
               static_cast<int64_t>(shard_views[s].current_epoch));
  }
  out.Family("trel_shard_snapshot_nodes",
             "Nodes in each shard's live snapshot.", "gauge");
  for (int s = 0; s < service.num_shards(); ++s) {
    out.Sample("trel_shard_snapshot_nodes", shard_labels[s],
               shard_views[s].snapshot_num_nodes);
  }

  // --- Front-end observability -------------------------------------------
  AppendTracerFamilies(out, service.tracer());
  AppendSlowLogFamilies(out, service.slow_log());
  AppendLatencyWindows(out, service.rollup());
  AppendFlightFamilies(out, service.flight_recorder());
  return out.str();
}

std::string RenderStatusz(const ShardedQueryService& service) {
  std::ostringstream out;
  const ShardedMetricsView view = service.MetricsView();
  out << "trel sharded query service status\n";
  out << "shards: " << view.num_shards << "\n";
  out << "epoch: " << view.epoch << "\n";
  out << "nodes: " << view.num_nodes << "  hubs: " << view.num_hubs
      << "  boundary_label_bytes: " << view.boundary_label_bytes << "\n";
  out << "cross_shard: queries=" << view.cross_shard_queries << "\n";
  out << "boundary_publishes: republished=" << view.boundary_republishes
      << " skipped=" << view.boundary_skips
      << " hub_promotions=" << view.hub_promotions << "\n";
  for (int s = 0; s < service.num_shards(); ++s) {
    const ServiceMetrics::View shard = service.shard(s).Metrics();
    out << "shard[" << s << "]: epoch=" << shard.current_epoch
        << " nodes=" << shard.snapshot_num_nodes
        << " publishes full=" << shard.publishes_full
        << " delta=" << shard.publishes_delta << "\n";
  }
  AppendLatencyWindowsStatus(out, service.rollup());
  // Machine-checkable raw line, mirroring the monolithic `metrics:` line
  // (the --obs CI stage diffs it against /metricsz).
  out << "boundary_metrics: " << view.ToString() << "\n";
  return out.str();
}

std::string RenderTracez(const ShardedQueryService& service) {
  return RenderTracez(service.tracer(), service.slow_log());
}

std::string RenderFlightz(const ShardedQueryService& service) {
  service.CheckFlightRecorder();
  return service.flight_recorder().ToJson();
}

}  // namespace trel

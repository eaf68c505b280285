#ifndef TREL_SERVICE_EXPOSITION_H_
#define TREL_SERVICE_EXPOSITION_H_

#include <string>

namespace trel {

class QueryService;
class ShardedQueryService;

// Renders every ServiceMetrics counter and histogram, the publish-span
// phase breakdown (split delta / chain_full / optimal_full), the tracer
// / slow-log summaries, the windowed latency families and the flight
// recorder's capture count as Prometheus text exposition format
// (version 0.0.4).  All metric names carry the `trel_` prefix.  A
// metrics scrape also runs the flight-recorder detectors.
std::string RenderMetricsz(const QueryService& service);

// Human-oriented one-page status: epoch / age / arena / SIMD gauges, the
// publish mix with per-phase averages, the `latency_windows:` block, and
// the raw ServiceMetrics::View::ToString() line (machine-checkable
// against /metricsz — the --obs CI stage diffs the two).
std::string RenderStatusz(const QueryService& service);

// The latest drained trace records plus the slow-query log, one line per
// record, oldest first.  Stage-attributed records (sharded front end)
// carry ` shard=` / ` stages=[...]` suffixes; slow entries render via
// SlowQueryEntry::ToString (shard-attributed when available).
std::string RenderTracez(const QueryService& service);

// The anomaly flight recorder's JSON payload
// ({"total_triggered":N,"captures":[...]}; obs/flight_recorder.h).
// Rendering first runs the detectors against the live counters, so a
// scrape of /flightz is also a detector pass.
std::string RenderFlightz(const QueryService& service);

// Sharded-service exposition: the boundary layer's own families
// (trel_sharded_* / trel_boundary_* / trel_hub_*) plus each shard's
// publish counters and snapshot gauges, labeled shard="<s>".  Reads are
// attributed per shard in the front-end rollup's shard<s> series.  The
// statusz page carries one line per shard, a `latency_windows:` block
// from the front-end rollup, and a machine-checkable
// `boundary_metrics:` line (ShardedMetricsView::ToString()) that the
// --obs CI stage diffs against /metricsz.
std::string RenderMetricsz(const ShardedQueryService& service);
std::string RenderStatusz(const ShardedQueryService& service);
std::string RenderTracez(const ShardedQueryService& service);
std::string RenderFlightz(const ShardedQueryService& service);

}  // namespace trel

#endif  // TREL_SERVICE_EXPOSITION_H_

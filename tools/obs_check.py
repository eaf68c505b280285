#!/usr/bin/env python3
"""Scrape a running trel_tool exporter and validate its output.

The ``--obs`` CI stage starts ``trel_tool serve <graph> 0 <secs>`` (which
warms the service with deterministic query traffic, prints the bound
ephemeral port, then idles) and points this checker at it.  Because the
server is quiescent while being scraped, the checks can be exact:

  1. /metricsz parses as Prometheus text format 0.0.4: every sample
     belongs to a family declared by exactly one ``# TYPE`` line, and
     every value parses as a float.
  2. Histograms are internally consistent: cumulative ``le`` buckets are
     non-decreasing, the ``+Inf`` bucket equals ``_count``, and the
     exporter's documented sum identities hold (batch latency sum ==
     trel_batch_micros_total, per-phase publish sums == the matching
     ``trel_publish_phase_micros_total`` counters, delta-node histogram
     sum == trel_delta_nodes_total).
  3. Counters are monotonic: a second scrape never shows a ``*_total``
     sample below the first.
  4. /metricsz agrees with ``ServiceMetrics::Read()``: the /statusz page
     embeds the raw ``metrics: <View::ToString()>`` line, and every
     field of it must match the corresponding /metricsz sample
     (snapshot age excluded — it is the one field that moves on an idle
     server).

  5. The windowed latency families are well-formed: every
     ``trel_latency_window_us`` series carries p50/p99/p999 samples in
     non-decreasing order, a matching ``trel_latency_window_samples``, and
     a ``window`` label of the ``<N>m`` form; every ``5m`` row of the
     /statusz ``latency_windows:`` block equals those quantiles and that
     sample count, series for series.  Only ``5m`` rows are compared: on a
     quiescent server a minute boundary between the two scrapes can empty
     a ``1m`` window.

With ``--sharded K`` the checker validates a ``trel_tool serve-sharded``
exporter instead: the boundary-layer families and one labeled sample per
shard must be present, counters must stay monotonic across scrapes, and
the /statusz ``boundary_metrics:`` line
(ShardedMetricsView::ToString()) must agree with /metricsz field for
field, and the front end's ``single`` and ``batch`` windows must have
counted the warm-up's sampled singles and batch.  The sharded surface
keeps per-shard and per-stage window series
(route/boundary_bitset/shard_query/merge, single, batch,
shard0..shardK-1); monolithic histogram checks are skipped.

With ``--expect-flight`` (the serve ran under TREL_FLIGHT_TEST_TRIGGER)
the checker additionally fetches /flightz and requires at least one
frozen capture whose payload is complete; in sharded mode the capture
must contain stage-attributed traces whose per-stage nanos sum to no
more than the recorded end-to-end latency.

Usage:
  tools/obs_check.py --port 8080 [--host 127.0.0.1] [--sharded K]
      [--expect-flight]
"""

import argparse
import json
import re
import sys
import urllib.request

SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+([^\s]+)$')

# /statusz `metrics:` field -> /metricsz sample key (name + label string).
STATUSZ_TO_METRICSZ = {
    "epoch": "trel_snapshot_epoch",
    "nodes": "trel_snapshot_nodes",
    "intervals": "trel_snapshot_intervals",
    "overlay_nodes": "trel_snapshot_overlay_nodes",
    "arena_bytes": "trel_snapshot_arena_bytes",
    "spare_arena_bytes": "trel_snapshot_spare_arena_bytes",
    "reach_queries": "trel_reach_queries_total",
    "successor_queries": "trel_successor_queries_total",
    "batches": "trel_batches_total",
    "batch_us": "trel_batch_micros_total",
    "batches_rejected": "trel_batches_rejected_total",
    "delta_nodes": "trel_delta_nodes_total",
    "publishes_delta": 'trel_publishes_total{kind="delta"}',
    "publish_us_delta": 'trel_publish_micros_total{kind="delta"}',
    "publishes_chain_full": 'trel_publishes_total{kind="chain_full"}',
    "publishes_optimal_full": 'trel_publishes_total{kind="optimal_full"}',
    "publishes_folded": "trel_publishes_folded_total",
    "publish_us_chain_full": 'trel_publish_micros_total{kind="chain_full"}',
    "publish_us_optimal_full":
        'trel_publish_micros_total{kind="optimal_full"}',
    "kernel_fast": 'trel_batch_kernel_outcomes_total{outcome="fast_path"}',
    "kernel_filter_rej":
        'trel_batch_kernel_outcomes_total{outcome="filter_reject"}',
    "kernel_group_rej":
        'trel_batch_kernel_outcomes_total{outcome="group_reject"}',
    "kernel_extras":
        'trel_batch_kernel_outcomes_total{outcome="extras_search"}',
}

# Exporter sum identities: histogram ``_sum`` series that must equal a
# counter sample on the same scrape.
SUM_IDENTITIES = [
    ("trel_batch_latency_microseconds_sum", "trel_batch_micros_total"),
    ("trel_publish_delta_nodes_sum", "trel_delta_nodes_total"),
]


def fetch(host, port, path):
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        if resp.status != 200:
            raise RuntimeError(f"GET {url} -> HTTP {resp.status}")
        return resp.read().decode("utf-8")


def parse_prometheus(text, errors):
    """Returns (types, samples) where samples maps 'name{labels}' -> float."""
    types = {}
    samples = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"metricsz:{lineno}: malformed TYPE line")
                continue
            family, kind = parts[2], parts[3]
            if family in types:
                errors.append(f"metricsz:{lineno}: duplicate TYPE {family}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"metricsz:{lineno}: unparseable sample {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            samples[name + labels] = float(value)
        except ValueError:
            errors.append(f"metricsz:{lineno}: non-numeric value {value!r}")
            continue
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                family = name[:-len(suffix)]
                break
        if family not in types:
            errors.append(
                f"metricsz:{lineno}: sample {name} has no TYPE declaration")
    return types, samples


def strip_le(labels):
    """Drops the le="..." pair; returns (group_labels, le_value)."""
    inner = labels[1:-1]
    keep = []
    le = None
    for pair in inner.split(","):
        if pair.startswith("le="):
            le = pair[len('le="'):-1]
        elif pair:
            keep.append(pair)
    return "{" + ",".join(keep) + "}" if keep else "", le


def check_histograms(types, samples, errors):
    for family, kind in types.items():
        if kind != "histogram":
            continue
        # Group bucket samples by their non-le label set.
        groups = {}
        prefix = family + "_bucket"
        for key, value in samples.items():
            if not key.startswith(prefix + "{"):
                continue
            group, le = strip_le(key[len(prefix):])
            if le is None:
                errors.append(f"{family}: bucket without le label: {key}")
                continue
            groups.setdefault(group, []).append((le, value))
        if not groups:
            errors.append(f"{family}: histogram has no _bucket samples")
            continue
        for group, buckets in groups.items():
            finite = sorted(
                ((float(le), v) for le, v in buckets if le != "+Inf"))
            inf = [v for le, v in buckets if le == "+Inf"]
            if len(inf) != 1:
                errors.append(f"{family}{group}: expected one +Inf bucket")
                continue
            prev = 0.0
            for le, v in finite:
                if v < prev:
                    errors.append(
                        f"{family}{group}: bucket le={le:g} decreases "
                        f"({v:g} < {prev:g})")
                prev = v
            if inf[0] < prev:
                errors.append(f"{family}{group}: +Inf bucket below last "
                              f"finite bucket")
            count = samples.get(family + "_count" + group)
            if count is None:
                errors.append(f"{family}{group}: missing _count")
            elif count != inf[0]:
                errors.append(
                    f"{family}{group}: _count {count:g} != +Inf bucket "
                    f"{inf[0]:g}")
            if samples.get(family + "_sum" + group) is None:
                errors.append(f"{family}{group}: missing _sum")
    for sum_key, counter_key in SUM_IDENTITIES:
        if sum_key in samples and counter_key in samples:
            if samples[sum_key] != samples[counter_key]:
                errors.append(
                    f"sum identity: {sum_key} {samples[sum_key]:g} != "
                    f"{counter_key} {samples[counter_key]:g}")
        else:
            errors.append(f"sum identity: {sum_key} or {counter_key} absent")
    # Per-phase publish histogram sums equal the per-phase counters.
    phase_prefix = "trel_publish_phase_microseconds_sum{"
    phase_sums = {k: v for k, v in samples.items()
                  if k.startswith(phase_prefix)}
    if not phase_sums:
        errors.append("no trel_publish_phase_microseconds_sum series")
    for key, value in phase_sums.items():
        counter_key = key.replace("trel_publish_phase_microseconds_sum",
                                  "trel_publish_phase_micros_total")
        counter = samples.get(counter_key)
        if counter is None:
            errors.append(f"sum identity: {counter_key} absent")
        elif counter != value:
            errors.append(f"sum identity: {key} {value:g} != "
                          f"{counter_key} {counter:g}")


def parse_statusz_metrics_line(statusz, errors):
    """Extracts View::ToString() fields from the /statusz `metrics:` line."""
    line = None
    for candidate in statusz.splitlines():
        if candidate.startswith("metrics: "):
            line = candidate[len("metrics: "):]
            break
    if line is None:
        errors.append("statusz: no `metrics:` line")
        return {}
    fields = {}

    def grab(pattern, name, group=1):
        m = re.search(pattern, line)
        if m is None:
            errors.append(f"statusz metrics line: missing {name}")
            return
        fields[name] = float(m.group(group))

    for name in ("epoch", "nodes", "intervals", "overlay_nodes",
                 "arena_bytes", "reach_queries", "successor_queries",
                 "batch_us"):
        grab(rf"\b{name}=(\d+)", name)
    grab(r"\bbatches=(\d+)", "batches")
    grab(r"\bbatches_rejected=(\d+)", "batches_rejected")
    grab(r" delta_nodes=(\d+)", "delta_nodes")
    grab(r"batch_kernel=\[fast=(\d+) filter_rej=(\d+) group_rej=(\d+) "
         r"extras=(\d+)\]", "kernel_fast", 1)
    grab(r"batch_kernel=\[fast=(\d+) filter_rej=(\d+) group_rej=(\d+) "
         r"extras=(\d+)\]", "kernel_filter_rej", 2)
    grab(r"batch_kernel=\[fast=(\d+) filter_rej=(\d+) group_rej=(\d+) "
         r"extras=(\d+)\]", "kernel_group_rej", 3)
    grab(r"batch_kernel=\[fast=(\d+) filter_rej=(\d+) group_rej=(\d+) "
         r"extras=(\d+)\]", "kernel_extras", 4)
    grab(r"publishes=\d+ \(full=(\d+) delta=(\d+)\)", "publishes_full", 1)
    grab(r"publishes=\d+ \(full=(\d+) delta=(\d+)\)", "publishes_delta", 2)
    grab(r"publish_us=\d+ \(full=(\d+) delta=(\d+)\)", "publish_us_full", 1)
    grab(r"publish_us=\d+ \(full=(\d+) delta=(\d+)\)", "publish_us_delta", 2)
    grab(r"\bpublishes_chain_full=(\d+)", "publishes_chain_full")
    grab(r"\bpublishes_optimal_full=(\d+)", "publishes_optimal_full")
    grab(r"\bpublishes_folded=(\d+)", "publishes_folded")
    grab(r"\bspare_arena_bytes=(\d+)", "spare_arena_bytes")
    grab(r"\bpublish_us_chain_full=(\d+)", "publish_us_chain_full")
    grab(r"\bpublish_us_optimal_full=(\d+)", "publish_us_optimal_full")
    return fields


WINDOW_SAMPLE_RE = re.compile(
    r'^trel_latency_window_us\{series="([^"]*)",window="([^"]*)",'
    r'quantile="([^"]*)"\}$')

STATUSZ_WINDOW_RE = re.compile(
    r'^\s+series=(\S+) window=(\S+) count=(\d+) p50_us=(\S+) '
    r'p99_us=(\S+) p999_us=(\S+)$')


def check_statusz_windows(groups, samples, statusz, errors):
    """Every 5m /statusz window row must equal its /metricsz samples."""
    rows = {}
    for line in statusz.split("latency_windows:\n", 1)[-1].splitlines():
        m = STATUSZ_WINDOW_RE.match(line)
        if m is None:
            break
        if m.group(2) == "5m":
            rows[m.group(1)] = (float(m.group(3)), {
                "p50": float(m.group(4)), "p99": float(m.group(5)),
                "p999": float(m.group(6))})
    expected = {series for series, window in groups if window == "5m"}
    if set(rows) != expected:
        errors.append(f"statusz windows: 5m series {sorted(rows)} != "
                      f"/metricsz 5m series {sorted(expected)}")
    for series, (count, quantiles) in sorted(rows.items()):
        count_key = (f'trel_latency_window_samples{{series="{series}",'
                     f'window="5m"}}')
        if samples.get(count_key) != count:
            errors.append(f"statusz windows: {series}/5m count {count:g} != "
                          f"{count_key} {samples.get(count_key)}")
        for quantile, value in quantiles.items():
            got = groups.get((series, "5m"), {}).get(quantile)
            if got != value:
                errors.append(f"statusz windows: {series}/5m {quantile} "
                              f"{value:g} != /metricsz {got}")
    print(f"obs_check: {len(rows)} statusz 5m window rows compared with "
          f"/metricsz")


def check_latency_windows(samples, statusz, errors, expect_series=None):
    """Validates the windowed latency families and the statusz block."""
    # Group the quantile gauges by (series, window).
    groups = {}
    for key in samples:
        m = WINDOW_SAMPLE_RE.match(key)
        if m is None:
            if key.startswith("trel_latency_window_us{"):
                errors.append(f"windows: unparseable labels in {key}")
            continue
        series, window, quantile = m.group(1), m.group(2), m.group(3)
        if not re.fullmatch(r"\d+m", window):
            errors.append(f"windows: {series}: bad window label {window!r}")
        groups.setdefault((series, window), {})[quantile] = samples[key]
    if not groups:
        errors.append("windows: no trel_latency_window_us samples")
        return
    seen_series = set()
    for (series, window), quantiles in sorted(groups.items()):
        seen_series.add(series)
        missing = {"p50", "p99", "p999"} - set(quantiles)
        if missing:
            errors.append(f"windows: {series}/{window}: missing quantiles "
                          f"{sorted(missing)}")
            continue
        if not (quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"]):
            errors.append(
                f"windows: {series}/{window}: quantiles out of order "
                f"(p50={quantiles['p50']:g} p99={quantiles['p99']:g} "
                f"p999={quantiles['p999']:g})")
        count_key = (f'trel_latency_window_samples{{series="{series}",'
                     f'window="{window}"}}')
        if count_key not in samples:
            errors.append(f"windows: missing {count_key}")
    for series in expect_series or []:
        if series not in seen_series:
            errors.append(f"windows: expected series {series!r} absent")
    if "latency_windows:" not in statusz:
        errors.append("statusz: missing latency_windows: block")
    else:
        check_statusz_windows(groups, samples, statusz, errors)
    print(f"obs_check: {len(groups)} latency window series validated")


def check_flightz(args, errors, require_stages):
    """Validates the /flightz payload after a forced test trigger."""
    try:
        doc = json.loads(fetch(args.host, args.port, "/flightz"))
    except (RuntimeError, ValueError) as exc:
        errors.append(f"flightz: fetch/parse failed: {exc}")
        return
    if doc.get("total_triggered", 0) < 1:
        errors.append("flightz: total_triggered < 1 despite forced trigger")
    captures = doc.get("captures", [])
    if not captures:
        errors.append("flightz: no captures despite forced trigger")
        return
    stage_traces = 0
    for capture in captures:
        for key in ("sequence", "reason", "detail", "trigger_nanos",
                    "traces", "spans", "slow", "metrics", "windows"):
            if key not in capture:
                errors.append(f"flightz: capture missing {key!r}")
        for trace in capture.get("traces", []):
            stages = trace.get("stages")
            if stages is None:
                continue
            stage_traces += 1
            stage_sum = sum(stages.values())
            if stage_sum > trace.get("nanos", 0):
                errors.append(
                    f"flightz: trace ({trace.get('src')},{trace.get('dst')})"
                    f" stage sum {stage_sum} exceeds end-to-end "
                    f"{trace.get('nanos')} ns")
        for row in capture.get("windows", []):
            if not (row.get("p50_us", 0) <= row.get("p99_us", 0)
                    <= row.get("p999_us", 0)):
                errors.append(f"flightz: window row {row.get('series')}/"
                              f"{row.get('window')} quantiles out of order")
    if not any(c.get("reason") == "forced_test_trigger" for c in captures):
        errors.append("flightz: no capture with reason forced_test_trigger")
    if require_stages and stage_traces == 0:
        errors.append("flightz: no stage-attributed traces in any capture")
    print(f"obs_check: flightz has {len(captures)} capture(s), "
          f"{stage_traces} stage-attributed trace(s)")


# /statusz `boundary_metrics:` field -> sharded /metricsz sample key.
BOUNDARY_TO_METRICSZ = {
    "shards": "trel_sharded_shards",
    "epoch": "trel_sharded_epoch",
    "nodes": "trel_sharded_nodes",
    "hubs": "trel_boundary_hubs",
    "boundary_label_bytes": "trel_boundary_label_bytes",
    "cross_shard_queries": "trel_cross_shard_queries_total",
    "boundary_republishes": "trel_boundary_republishes_total",
    "boundary_skips": "trel_boundary_skips_total",
    "hub_promotions": "trel_hub_promotions_total",
}

# Per-shard families every shard must show up in, with a shard="<s>"
# label (trel_shard_publishes_total additionally splits by kind).
PER_SHARD_FAMILIES = [
    "trel_shard_snapshot_epoch",
    "trel_shard_snapshot_nodes",
]


def parse_boundary_metrics_line(statusz, errors):
    """Extracts ShardedMetricsView::ToString() fields from /statusz."""
    line = None
    for candidate in statusz.splitlines():
        if candidate.startswith("boundary_metrics: "):
            line = candidate[len("boundary_metrics: "):]
            break
    if line is None:
        errors.append("statusz: no `boundary_metrics:` line")
        return {}
    fields = {}
    for name in BOUNDARY_TO_METRICSZ:
        m = re.search(rf"\b{name}=(\d+)", line)
        if m is None:
            errors.append(f"statusz boundary_metrics line: missing {name}")
        else:
            fields[name] = float(m.group(1))
    return fields


def check_sharded(args, errors):
    first = fetch(args.host, args.port, "/metricsz")
    statusz = fetch(args.host, args.port, "/statusz")
    second = fetch(args.host, args.port, "/metricsz")

    types, samples = parse_prometheus(first, errors)
    _, samples2 = parse_prometheus(second, [])
    print(f"obs_check: {len(samples)} samples in {len(types)} families "
          f"(sharded, K={args.sharded})")

    # Boundary-layer families and declared shard count.
    for key in BOUNDARY_TO_METRICSZ.values():
        if key not in samples:
            errors.append(f"sharded: /metricsz lacks {key}")
    if samples.get("trel_sharded_shards") != float(args.sharded):
        errors.append(
            f"sharded: trel_sharded_shards = "
            f"{samples.get('trel_sharded_shards')} but expected "
            f"{args.sharded}")

    # One labeled sample per shard per family.
    for s in range(args.sharded):
        for family in PER_SHARD_FAMILIES:
            key = f'{family}{{shard="{s}"}}'
            if key not in samples:
                errors.append(f"sharded: missing {key}")
        for kind in ("delta", "chain_full", "optimal_full"):
            key = f'trel_shard_publishes_total{{shard="{s}",kind="{kind}"}}'
            if key not in samples:
                errors.append(f"sharded: missing {key}")

    # Counter monotonicity between the two scrapes.
    for key, value in samples.items():
        name = key.split("{", 1)[0]
        if types.get(name) == "counter":
            later = samples2.get(key)
            if later is None:
                errors.append(f"monotonicity: {key} vanished on re-scrape")
            elif later < value:
                errors.append(
                    f"monotonicity: {key} went {value:g} -> {later:g}")

    # /statusz `boundary_metrics:` line vs /metricsz, field for field.
    fields = parse_boundary_metrics_line(statusz, errors)
    for field, value in sorted(fields.items()):
        key = BOUNDARY_TO_METRICSZ[field]
        got = samples.get(key)
        if got is None:
            errors.append(f"agreement: /metricsz lacks {key}")
        elif got != value:
            errors.append(f"agreement: {key} = {got:g} but statusz "
                          f"{field} = {value:g}")
    if fields:
        print(f"obs_check: statusz/metricsz agreement over "
              f"{len(fields)} boundary fields")

    # Per-shard statusz lines must cover every shard.
    for s in range(args.sharded):
        if f"shard[{s}]:" not in statusz:
            errors.append(f"statusz: missing shard[{s}] line")

    # Warmed-up traffic: the front end's sampled singles and its batch
    # must land in their rollup windows, and boundary republishes must be
    # live; cross-shard traffic requires a real boundary (K > 1).
    for series in ("single", "batch"):
        counted = max(
            (value for key, value in samples.items()
             if key.startswith("trel_latency_window_samples{"
                               f'series="{series}",')), default=0)
        if counted <= 0:
            errors.append(f"warmup: the front end's {series!r} rollup "
                          "windows counted no samples")
    if samples.get("trel_boundary_republishes_total", 0) <= 0:
        errors.append("warmup: no boundary republishes")
    if args.sharded > 1 and \
            samples.get("trel_cross_shard_queries_total", 0) <= 0:
        errors.append("warmup: no cross-shard queries despite K > 1")

    # Windowed latency families: per-stage, front-end, and per-shard
    # series (src/service/sharded_service.cc rollup layout).
    expect_series = ["route", "boundary_bitset", "shard_query", "merge",
                     "single", "batch"]
    expect_series += [f"shard{s}" for s in range(args.sharded)]
    check_latency_windows(samples, statusz, errors, expect_series)
    if args.expect_flight:
        check_flightz(args, errors, require_stages=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--sharded", type=int, default=0, metavar="K",
                        help="validate a serve-sharded exporter with K "
                             "shards instead of the monolithic surface")
    parser.add_argument("--expect-flight", action="store_true",
                        help="the serve ran under TREL_FLIGHT_TEST_TRIGGER: "
                             "require a forced /flightz capture")
    args = parser.parse_args()

    errors = []

    if args.sharded > 0:
        check_sharded(args, errors)
        if errors:
            print(f"\nobs_check: {len(errors)} failure(s):", file=sys.stderr)
            for err in errors:
                print(f"  {err}", file=sys.stderr)
            return 1
        print("obs_check: all sharded exporter checks passed")
        return 0

    first = fetch(args.host, args.port, "/metricsz")
    statusz = fetch(args.host, args.port, "/statusz")
    tracez = fetch(args.host, args.port, "/tracez")
    second = fetch(args.host, args.port, "/metricsz")

    types, samples = parse_prometheus(first, errors)
    _, samples2 = parse_prometheus(second, [])
    print(f"obs_check: {len(samples)} samples in {len(types)} families")

    counters = [f for f, kind in types.items() if kind == "counter"]
    if len(counters) < 8:
        errors.append(f"only {len(counters)} counter families "
                      f"(expected the full ServiceMetrics set)")
    check_histograms(types, samples, errors)

    # Counter monotonicity between the two scrapes.
    for key, value in samples.items():
        name = key.split("{", 1)[0]
        family = name[:-len("_total")] if name.endswith("_total") else name
        if types.get(name) == "counter" or types.get(family) == "counter" \
                or name.endswith(("_bucket", "_count", "_sum")):
            later = samples2.get(key)
            if later is None:
                errors.append(f"monotonicity: {key} vanished on re-scrape")
            elif later < value:
                errors.append(
                    f"monotonicity: {key} went {value:g} -> {later:g}")

    # /statusz `metrics:` line vs /metricsz samples, field for field.
    fields = parse_statusz_metrics_line(statusz, errors)
    for field, value in sorted(fields.items()):
        key = STATUSZ_TO_METRICSZ.get(field)
        if key is None:
            continue
        got = samples.get(key)
        if got is None:
            errors.append(f"agreement: /metricsz lacks {key}")
        elif got != value:
            errors.append(f"agreement: {key} = {got:g} but statusz "
                          f"{field} = {value:g}")
    if fields:
        print(f"obs_check: statusz/metricsz agreement over "
              f"{len(fields)} fields")

    # The publish-tier split must add up: the statusz full totals are the
    # sum of the chain_full and optimal_full tiers.
    for total_field, parts in (
            ("publishes_full",
             ("publishes_chain_full", "publishes_optimal_full")),
            ("publish_us_full",
             ("publish_us_chain_full", "publish_us_optimal_full"))):
        if total_field in fields and all(p in fields for p in parts):
            part_sum = sum(fields[p] for p in parts)
            if fields[total_field] != part_sum:
                errors.append(
                    f"tier split: {total_field} {fields[total_field]:g} != "
                    f"{' + '.join(parts)} = {part_sum:g}")
    # Folded publishes are full publishes whose arena was folded from the
    # previous base rather than rebuilt.
    if fields.get("publishes_folded", 0) > fields.get("publishes_full", 0):
        errors.append(
            f"fold split: publishes_folded {fields['publishes_folded']:g} > "
            f"publishes_full {fields.get('publishes_full', 0):g}")

    # The warmed server must show real traffic, or the checks above are
    # vacuous.  Full publishes may be chain-fast or Alg1-optimal depending
    # on the serve graph, so the tiers are summed.
    for key in ("trel_reach_queries_total", "trel_batches_total",
                'trel_publishes_total{kind="delta"}'):
        if samples.get(key, 0) <= 0:
            errors.append(f"warmup: {key} is zero — serve warmup broken")
    full_publishes = (
        samples.get('trel_publishes_total{kind="chain_full"}', 0) +
        samples.get('trel_publishes_total{kind="optimal_full"}', 0))
    if full_publishes <= 0:
        errors.append("warmup: no chain_full/optimal_full publishes — "
                      "serve warmup broken")

    if "sample_period:" not in tracez or "slow_queries:" not in tracez:
        errors.append("tracez: missing sample_period/slow_queries sections")

    # Windowed latency families: the monolithic service keeps a `single`
    # (sampled path) and a `batch` series.
    check_latency_windows(samples, statusz, errors, ["single", "batch"])
    if args.expect_flight:
        check_flightz(args, errors, require_stages=False)

    if errors:
        print(f"\nobs_check: {len(errors)} failure(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("obs_check: all exporter checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

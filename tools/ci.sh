#!/usr/bin/env bash
# CI driver: tier-1 verification, sanitizer passes, and a bench smoke run.
#
#   tools/ci.sh                # tier-1 + ASan/UBSan tests + TSan service tests
#   tools/ci.sh --tier1        # plain build + full ctest (the ROADMAP gate)
#   tools/ci.sh --asan         # ASan/UBSan build + full ctest
#   tools/ci.sh --tsan         # TSan build + concurrent service tests
#   tools/ci.sh --bench-smoke  # run every bench binary at tiny sizes,
#                              # collecting BENCH_*.json into build/bench-json,
#                              # then gate hot metrics with tools/bench_diff.py
#   tools/ci.sh --arena-fuzz   # arena differential fuzz under ASan/UBSan,
#                              # repeated once per TREL_SIMD level
#   tools/ci.sh --simd-matrix  # tier-1 test battery under each TREL_SIMD
#                              # level the host can execute
#   tools/ci.sh --shard-matrix # partitioner invariants + the sharded-vs-
#                              # monolithic differential battery once per
#                              # TREL_SHARDS in {1, 2, 4, 8} — every shard
#                              # count must be bit-for-bit exact
#   tools/ci.sh --obs          # obs unit tests, live /metricsz–/statusz–
#                              # /flightz scrapes validated by
#                              # tools/obs_check.py (monolithic and
#                              # sharded exporters at K=1 and K=4, with a
#                              # forced flight-recorder capture), and the
#                              # query tracer + latency rollup under TSan
#   tools/ci.sh --soak         # bounded serving-edge soak: delta-publish
#                              # storm under open-loop load + slow scrapes,
#                              # failing on p99 drift or bad responses
#                              # (TREL_SOAK_SMOKE=1 shrinks it for CI)
#   tools/ci.sh --perfbench    # end-to-end benchmark self-test on tiny
#                              # inputs: builds perfbench/ into
#                              # .bench_build/ and checks every workload's
#                              # metrics and answers against DFS
#
# Stages may be combined (e.g. `tools/ci.sh --tier1 --bench-smoke`).
# Extra configure flags for all stages can be passed via TREL_CMAKE_FLAGS
# (e.g. TREL_CMAKE_FLAGS="-DTREL_WERROR=ON" as the CI workflow does).
#
# Sanitizer builds use the TREL_SANITIZE cache option from the top-level
# CMakeLists and live in their own build trees so they never disturb the
# primary build/ directory.

set -euo pipefail
cd "$(dirname "$0")/.."

# `nproc` is a GNU coreutils tool; fall back to POSIX getconf (macOS,
# minimal containers) and finally to 2.
if command -v nproc >/dev/null 2>&1; then
  default_jobs="$(nproc)"
else
  default_jobs="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)"
fi
JOBS="${JOBS:-${default_jobs}}"

# Word-splitting of TREL_CMAKE_FLAGS is intentional: it carries zero or
# more -D flags.
# shellcheck disable=SC2206
EXTRA_CMAKE_FLAGS=(${TREL_CMAKE_FLAGS:-})

run() {
  echo "==> $*"
  "$@"
}

tier1() {
  # Mirrors the ROADMAP tier-1 verify command exactly.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}"
  (cd build && run ctest --output-on-failure -j "${JOBS}")
}

asan_ubsan() {
  run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTREL_SANITIZE=address,undefined "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build-asan -j "${JOBS}"
  # Serial on purpose: the ToolTest subprocess pipeline is flaky when two
  # ASan process trees compete for memory on small hosts.
  (cd build-asan && run ctest --output-on-failure)
}

tsan_service() {
  run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTREL_SANITIZE=thread "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build-tsan -j "${JOBS}" --target query_service_test \
    sharded_service_test
  # Both services' reader-slot pin protocol (service/published_ptr.h),
  # with no suppressions.
  run env TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/query_service_test
  run env TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/sharded_service_test
}

bench_smoke() {
  # Executes every bench binary end-to-end at tiny sizes (TREL_BENCH_SMOKE
  # caps problem sizes at n<=200 inside the binaries) as a does-it-run
  # check, so bench code can't rot between perf-measurement sessions.
  # TREL_BENCH_JSON makes each bench drop its machine-readable
  # BENCH_<name>.json into build/bench-json (the CI workflow uploads the
  # directory as an artifact); a bench that crashes mid-emission fails
  # the loop, and a run that produces no JSON at all fails the stage.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}"
  # The diff tool gates this stage, so its own rules are self-tested
  # first — in particular "missing baseline data is a hard failure".
  run python3 tools/bench_diff_test.py
  local json_dir="build/bench-json"
  rm -rf "${json_dir}"
  mkdir -p "${json_dir}"
  local binary
  for binary in build/bench/*; do
    [[ -f "${binary}" && -x "${binary}" ]] || continue
    run env TREL_BENCH_SMOKE=1 TREL_BENCH_JSON="${json_dir}" \
      "${binary}" > /dev/null
  done
  # The open-loop load harness emits artifacts through the same pipe.
  local scenario
  for scenario in zipf_single batch_mix update_storm shard_mix; do
    run env TREL_BENCH_SMOKE=1 TREL_BENCH_JSON="${json_dir}" \
      ./build/tools/loadgen --scenario="${scenario}" > /dev/null
  done
  if ! compgen -G "${json_dir}/BENCH_*.json" > /dev/null; then
    echo "bench smoke produced no BENCH_*.json in ${json_dir}" >&2
    exit 1
  fi
  run ls "${json_dir}"
  # Gate the named hot metrics against the committed smoke baselines.
  # Smoke iteration counts are tiny, so the manifest carries generous
  # per-row thresholds; TREL_BENCH_DIFF_SKIP=1 demotes failures to a
  # report for hosts that don't resemble the baseline machine.
  # The markdown drift report lands next to the JSON so the workflow's
  # bench-json artifact upload carries it too.
  run python3 tools/bench_diff.py \
    --current "${json_dir}" \
    --baselines bench/baselines/smoke \
    --manifest bench/baselines/hot_metrics.json \
    --report "${json_dir}/bench_drift_report.md"
}

# Levels this host can execute, per the runtime dispatcher itself
# (`trel_tool simd` prints "requested=... supported=<level> active=...").
host_simd_levels() {
  local tool="$1"
  local supported
  supported="$("${tool}" simd | sed -n 's/.*supported=\([a-z0-9]*\).*/\1/p')"
  case "${supported}" in
    avx2) echo "scalar avx2" ;;
    *) echo "scalar" ;;
  esac
}

simd_matrix() {
  # Re-runs the dispatch-sensitive test battery once per executable
  # TREL_SIMD level.  `trel_tool simd` exits nonzero if the dispatcher
  # resolves to a level the host cannot execute or ignores an honorable
  # request, so the matrix doubles as the dispatcher-soundness gate.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}" --target \
    trel_tool simd_dispatch_test arena_differential_test \
    compressed_closure_test query_service_test
  local level
  for level in $(host_simd_levels ./build/tools/trel_tool); do
    echo "==> simd matrix: TREL_SIMD=${level}"
    run env TREL_SIMD="${level}" ./build/tools/trel_tool simd
    run env TREL_SIMD="${level}" ./build/tests/simd_dispatch_test
    run env TREL_SIMD="${level}" ./build/tests/arena_differential_test
    run env TREL_SIMD="${level}" ./build/tests/compressed_closure_test
    run env TREL_SIMD="${level}" ./build/tests/query_service_test
  done
}

shard_matrix() {
  # Partition invariants once, then the sharded-vs-monolithic
  # differential battery once per shard count.  TREL_SHARDS pins the
  # suite's K sweep to one value, so a failure names the shard count
  # that broke.  `trel_tool partition` runs per K as a cheap offline
  # probe of the same partitioning step the sharded Load performs.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}" --target \
    trel_tool partition_test sharded_service_test
  run ./build/tests/partition_test
  local graph="build/shard-graph.el"
  echo "==> ./build/tools/trel_tool generate clustered 8 125 3.0 3 0.08 7" \
    "> ${graph}"
  ./build/tools/trel_tool generate clustered 8 125 3.0 3 0.08 7 > "${graph}"
  local k
  for k in 1 2 4 8; do
    echo "==> shard matrix: TREL_SHARDS=${k}"
    run ./build/tools/trel_tool partition "${graph}" "${k}"
    run env TREL_SHARDS="${k}" ./build/tests/sharded_service_test
  done
}

# Waits for a backgrounded trel_tool serve/serve-sharded to print its
# bound port into $1; echoes the port, or fails the stage.
wait_for_serve_port() {
  local log="$1" pid="$2" what="$3"
  local port=""
  local attempt
  for attempt in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
      "${log}")"
    [[ -n "${port}" ]] && break
    if ! kill -0 "${pid}" 2>/dev/null; then
      echo "obs: ${what} exited before binding" >&2
      cat "${log}" >&2
      return 1
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "obs: timed out waiting for ${what} to bind" >&2
    cat "${log}" >&2
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  echo "${port}"
}

obs_stage() {
  # Observability end-to-end: run the obs unit suites, then scrape live
  # exporters (trel_tool serve / serve-sharded on ephemeral ports, warmed
  # with deterministic traffic, with a forced flight-recorder capture via
  # TREL_FLIGHT_TEST_TRIGGER) and validate /metricsz, /statusz, /tracez
  # and /flightz with tools/obs_check.py — Prometheus well-formedness,
  # histogram consistency, counter monotonicity, windowed-latency
  # ordering, field-for-field agreement of /metricsz with the
  # ServiceMetrics::Read() line embedded in /statusz, and the forced
  # capture's stage-attributed traces.  The sharded exporter runs at
  # K=1 and K=4.  Finally the lock-free tracer's and the rollup's
  # concurrency tests rerun under TSan.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}" --target trel_tool obs_test \
    rollup_test
  run ./build/tests/obs_test
  run ./build/tests/rollup_test
  local graph="build/obs-graph.el"
  local serve_log="build/obs-serve.log"
  echo "==> ./build/tools/trel_tool generate random 2000 3 17 > ${graph}"
  ./build/tools/trel_tool generate random 2000 3 17 > "${graph}"
  # Sampling on (1-in-64) so /tracez and the trace counters are
  # non-trivial; port 0 = kernel-assigned, parsed back from the log.
  env TREL_TRACE_SAMPLE=64 TREL_FLIGHT_TEST_TRIGGER=1 \
    ./build/tools/trel_tool serve "${graph}" 0 60 > "${serve_log}" &
  local serve_pid=$!
  local port
  port="$(wait_for_serve_port "${serve_log}" "${serve_pid}" \
    "trel_tool serve")" || exit 1
  echo "==> obs: exporter listening on port ${port}"
  local check_status=0
  python3 tools/obs_check.py --port "${port}" --expect-flight \
    || check_status=$?
  kill "${serve_pid}" 2>/dev/null || true
  wait "${serve_pid}" 2>/dev/null || true
  [[ "${check_status}" -eq 0 ]] || exit "${check_status}"
  # Same scrape dance against the sharded exporter: serve-sharded on a
  # clustered graph (so the boundary is non-trivial), validated by the
  # checker's --sharded mode at a degenerate and a real shard count.
  local sharded_graph="build/obs-sharded-graph.el"
  echo "==> ./build/tools/trel_tool generate clustered 8 125 3.0 3 0.08 7" \
    "> ${sharded_graph}"
  ./build/tools/trel_tool generate clustered 8 125 3.0 3 0.08 7 \
    > "${sharded_graph}"
  local k
  for k in 1 4; do
    local sharded_log="build/obs-serve-sharded-k${k}.log"
    env TREL_TRACE_SAMPLE=64 TREL_FLIGHT_TEST_TRIGGER=1 \
      ./build/tools/trel_tool serve-sharded "${sharded_graph}" "${k}" 0 60 \
      > "${sharded_log}" &
    local sharded_pid=$!
    port="$(wait_for_serve_port "${sharded_log}" "${sharded_pid}" \
      "trel_tool serve-sharded (K=${k})")" || exit 1
    echo "==> obs: sharded exporter (K=${k}) listening on port ${port}"
    check_status=0
    python3 tools/obs_check.py --port "${port}" --sharded "${k}" \
      --expect-flight || check_status=$?
    kill "${sharded_pid}" 2>/dev/null || true
    wait "${sharded_pid}" 2>/dev/null || true
    [[ "${check_status}" -eq 0 ]] || exit "${check_status}"
  done
  # Tracer and rollup concurrency tests under TSan: writers race Drain /
  # Window by design.
  run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTREL_SANITIZE=thread "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build-tsan -j "${JOBS}" --target obs_test rollup_test
  run env TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/obs_test --gtest_filter='QueryTracerTest.*'
  run env TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/rollup_test --gtest_filter='LatencyRollupTest.*'
}

soak() {
  # Bounded (~60s real time) serving-edge soak: tools/loadgen's soak
  # scenario runs a delta-publish storm (1000 publishes full-size, 25 in
  # smoke) under open-loop query load while slow consumers scrape
  # /metricsz and /statusz over the hardened HttpServer.  loadgen exits
  # nonzero — failing this stage — on p99 drift between the run's
  # halves, on any scrape answer other than 200/503, or on malformed
  # scrape bodies.  TREL_SOAK_SMOKE=1 (the workflow default) shrinks it
  # to a does-it-run pass for shared runners.
  run cmake -B build -S . "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build -j "${JOBS}" --target loadgen
  local json_dir="build/bench-json"
  mkdir -p "${json_dir}"
  if [[ "${TREL_SOAK_SMOKE:-0}" == "1" ]]; then
    run env TREL_BENCH_SMOKE=1 TREL_BENCH_JSON="${json_dir}" \
      ./build/tools/loadgen --scenario=soak
  else
    # ~60s: 1000 publishes at a 50ms cadence, queries and scrapes the
    # whole way.
    run env TREL_BENCH_JSON="${json_dir}" ./build/tools/loadgen \
      --scenario=soak --duration-s=60 --rate=2000 --publish-count=1000 \
      --update-interval-ms=50
  fi
}

arena_fuzz() {
  # Differential fuzz of the flat query arena under ASan/UBSan: the
  # randomized DAG / gap-labeling / overlay-chain suite is the one most
  # likely to surface an out-of-bounds read in the Eytzinger runs or
  # coverage filters, so it gets a dedicated sanitized entry point.
  run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTREL_SANITIZE=address,undefined "${EXTRA_CMAKE_FLAGS[@]}"
  run cmake --build build-asan -j "${JOBS}" --target \
    arena_differential_test trel_tool
  # Loop every host-executable dispatch level: an out-of-bounds read in
  # a vector scan or the pipelined batch engine only fires under the
  # level that exercises that code path.
  local level
  for level in $(host_simd_levels ./build-asan/tools/trel_tool); do
    echo "==> arena fuzz: TREL_SIMD=${level}"
    run env TREL_SIMD="${level}" ./build-asan/tests/arena_differential_test
  done
}

perfbench_selftest() {
  # The end-to-end benchmark judges every perf change and checks every
  # answer it gets against DFS, so its own build and contract are tested
  # here: each workload on tiny inputs, traced and untraced, with seed
  # determinism (about 20 s plus the build).
  run python3 perfbench/selftest.py
}

if [[ $# -eq 0 ]]; then
  stages=(tier1 asan_ubsan tsan_service)
else
  stages=()
  for arg in "$@"; do
    case "${arg}" in
      --tier1) stages+=(tier1) ;;
      --asan) stages+=(asan_ubsan) ;;
      --tsan) stages+=(tsan_service) ;;
      --bench-smoke) stages+=(bench_smoke) ;;
      --arena-fuzz) stages+=(arena_fuzz) ;;
      --simd-matrix) stages+=(simd_matrix) ;;
      --shard-matrix) stages+=(shard_matrix) ;;
      --obs) stages+=(obs_stage) ;;
      --soak) stages+=(soak) ;;
      --perfbench) stages+=(perfbench_selftest) ;;
      *)
        echo "unknown stage: ${arg}" >&2
        echo "usage: tools/ci.sh [--tier1] [--asan] [--tsan] [--bench-smoke]" \
          "[--arena-fuzz] [--simd-matrix] [--shard-matrix] [--obs]" \
          "[--soak] [--perfbench]" >&2
        exit 2
        ;;
    esac
  done
fi

for stage in "${stages[@]}"; do
  "${stage}"
done

echo "==> ci.sh: all requested stages passed"

#!/bin/sh
# Builds and tests every preset: the Release build plus the TSan and
# ASan+UBSan instrumented builds, then a bench-smoke stage that runs
# bench_table5_efficiency at a tiny scale, validates its
# MICTREND_BENCH_JSON report, and gates the deterministic values
# against the committed baseline. Run from the repo root:
#
#   scripts/check.sh              # all presets + bench/cache/store/serve/perf/obs/perfbench smoke
#   scripts/check.sh default      # just one preset
#   scripts/check.sh bench-smoke  # just the bench regression gate
#   scripts/check.sh cache-smoke  # just the incremental-cache gate
#   scripts/check.sh store-smoke  # just the persistent-store gate
#   scripts/check.sh serve-smoke  # just the trend-query daemon gate
#   scripts/check.sh drill-smoke  # just the drill-down rollup gate
#   scripts/check.sh perf-smoke   # just the parallel-scaling gate
#   scripts/check.sh obs-smoke    # just the telemetry/OpenMetrics gate
#   scripts/check.sh perfbench-smoke  # just the benchmark harness build + selftest
#
# Presets come from CMakePresets.json (cmake >= 3.21); on older cmake
# this falls back to plain -B/-S invocations with the same cache
# variables.
set -e

cd "$(dirname "$0")/.."
PRESETS="${*:-default tsan asan bench-smoke cache-smoke store-smoke serve-smoke drill-smoke perf-smoke obs-smoke perfbench-smoke}"

# Waits for a daemon's port file (its ready signal), polling every half
# second up to TRIES times; fails the stage, printing the daemon's log,
# when the daemon dies first or never writes the file.
#   await_port PORT_FILE PID LOG TRIES
await_port() {
  await_tries=0
  while [ ! -s "$1" ]; do
    if ! kill -0 "$2" 2>/dev/null; then
      echo "daemon died during startup:" >&2
      cat "$3" >&2
      exit 1
    fi
    await_tries=$((await_tries + 1))
    if [ "$await_tries" -gt "$4" ]; then
      echo "daemon never wrote its port file $1" >&2
      kill "$2" 2>/dev/null || true
      exit 1
    fi
    sleep 0.5
  done
}

# Runs bench_table5_efficiency at the pinned smoke scale (the config the
# committed baseline was generated with -- bench_compare refuses to diff
# across configs) and compares. Timing keys report but do not gate; the
# deterministic keys (series counts, fit counts, the bit-identical
# parallel check) must match the baseline exactly.
bench_smoke() {
  echo "==== bench-smoke: bench_table5_efficiency JSON regression gate ===="
  if [ ! -x build/bench/bench_table5_efficiency ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
      -DMICTREND_BUILD_BENCHMARKS=ON
    cmake --build build -j "$(nproc)" --target bench_table5_efficiency
  fi
  out="build/bench/BENCH_table5.json"
  MICTREND_BENCH_PATIENTS=200 \
  MICTREND_BENCH_BACKGROUND=10 \
  MICTREND_BENCH_MAX_SERIES=12 \
  MICTREND_BENCH_THREADS=1,2,4,8 \
  MICTREND_BENCH_JSON="$out" \
    build/bench/bench_table5_efficiency > build/bench/BENCH_table5.out
  scripts/bench_compare.sh bench/baselines/BENCH_table5.json "$out"
}

# The parallel-scaling gate: rerun the table5 bench at the pinned smoke
# scale with the 1,2,4,8 thread curve, gate timing keys against the
# baseline (--time-factor bounds regressions), and require the
# candidate-level sweep to reach >= 1.5x at 4 threads -- on hardware
# that has 4 cores to scale over. Narrower machines (CI containers)
# check bit-identity at every width but skip the speedup floor, since
# no scheduling can beat the core count.
perf_smoke() {
  echo "==== perf-smoke: parallel scaling gate (table5 thread curve) ===="
  if [ ! -x build/bench/bench_table5_efficiency ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
      -DMICTREND_BUILD_BENCHMARKS=ON
    cmake --build build -j "$(nproc)" --target bench_table5_efficiency
  fi
  out="build/bench/BENCH_table5_perf.json"
  MICTREND_BENCH_PATIENTS=200 \
  MICTREND_BENCH_BACKGROUND=10 \
  MICTREND_BENCH_MAX_SERIES=12 \
  MICTREND_BENCH_THREADS=1,2,4,8 \
  MICTREND_BENCH_JSON="$out" \
    build/bench/bench_table5_efficiency > build/bench/BENCH_table5_perf.out
  scripts/bench_compare.sh bench/baselines/BENCH_table5.json "$out" \
    --time-factor "${MICTREND_PERF_TIME_FACTOR:-10}"
  python3 - "$out" "$(nproc)" << 'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
parallel = report["sections"]["parallel"]
assert parallel["identical"] == 1, \
    f"parallel sweep not bit-identical across widths: {parallel}"
cores = int(sys.argv[2])
speedup = parallel.get("t4_speedup")
assert speedup is not None, "t4_speedup missing from parallel section"
if cores >= 4:
    assert speedup >= 1.5, (
        f"candidate sweep speedup at 4 threads is {speedup:.2f}x "
        f"(< 1.5x) on a {cores}-core machine")
    print(f"perf-smoke OK: {speedup:.2f}x at 4 threads ({cores} cores)")
else:
    print(f"perf-smoke: speedup floor skipped on {cores}-core hardware "
          f"(measured {speedup:.2f}x at 4 threads); bit-identity held")
EOF
}

# The mic::cache incremental-update gate: seed a cache with a cold
# pipeline run (--cache=write), rerun warm (--cache=rw), and require a
# byte-identical report with nonzero hits and zero misses/read errors.
cache_smoke() {
  echo "==== cache-smoke: cold seed -> warm rerun identity gate ===="
  if [ ! -x build/tools/mictrend ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j "$(nproc)" --target mictrend
  fi
  work="build/cache_smoke_work"
  rm -rf "$work"
  mkdir -p "$work"
  build/tools/mictrend generate --out "$work/corpus.csv" \
    --months 12 --patients 250 --background 3 --seed 7
  build/tools/mictrend pipeline --corpus "$work/corpus.csv" \
    --min-total 5 --seasonal false --cache write \
    --cache-dir "$work/cache" --out "$work/cold.csv" > /dev/null
  build/tools/mictrend pipeline --corpus "$work/corpus.csv" \
    --min-total 5 --seasonal false --cache rw \
    --cache-dir "$work/cache" --out "$work/warm.csv" \
    --metrics-out "$work/warm_metrics.json" > /dev/null
  cmp "$work/cold.csv" "$work/warm.csv"
  python3 - "$work/warm_metrics.json" << 'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("cache.hits", 0) > 0, counters
assert counters.get("cache.misses", 1) == 0, counters
assert counters.get("cache.read_errors", 1) == 0, counters
EOF
  echo "cache-smoke OK: warm rerun byte-identical with cache hits"
}

# The mic::store persistence gate: import a corpus into a columnar
# store, rerun the pipeline from the store (warm load), append one new
# month, and require every store-backed report to match its CSV-backed
# twin byte for byte.
store_smoke() {
  echo "==== store-smoke: import -> warm load -> append identity gate ===="
  if [ ! -x build/tools/mictrend ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j "$(nproc)" --target mictrend
  fi
  work="build/store_smoke_work"
  rm -rf "$work"
  mkdir -p "$work"
  # One 13-month world; the first 12 months are the "already imported"
  # history and month 12 is the newly arrived batch.
  build/tools/mictrend generate --out "$work/corpus13.csv" \
    --hospitals-out "$work/hospitals.csv" \
    --months 13 --patients 250 --background 3 --seed 7
  awk -F, 'NR == 1 || $1 != 12' "$work/corpus13.csv" > "$work/corpus12.csv"
  build/tools/mictrend import --corpus "$work/corpus12.csv" \
    --hospitals "$work/hospitals.csv" --store-dir "$work/store" \
    | grep -q "imported 12 of 12 months"
  build/tools/mictrend pipeline --corpus "$work/corpus12.csv" \
    --min-total 5 --seasonal false --out "$work/csv12.csv" > /dev/null
  build/tools/mictrend pipeline --corpus "$work/corpus12.csv" \
    --store-dir "$work/store" --min-total 5 --seasonal false \
    --out "$work/store12.csv" > /dev/null 2> "$work/ingest12.err"
  grep -q "ingested 12 months from store" "$work/ingest12.err"
  cmp "$work/csv12.csv" "$work/store12.csv"
  cp -R "$work/store" "$work/store12"
  # Month 12 arrives: append extends the store in place, and the
  # store-backed report tracks the grown world.
  build/tools/mictrend import --corpus "$work/corpus13.csv" \
    --store-dir "$work/store" --append \
    | grep -q "imported 1 of 13 months"
  build/tools/mictrend pipeline --corpus "$work/corpus13.csv" \
    --min-total 5 --seasonal false --out "$work/csv13.csv" > /dev/null
  build/tools/mictrend pipeline --corpus "$work/corpus13.csv" \
    --store-dir "$work/store" --min-total 5 --seasonal false \
    --out "$work/store13.csv" > /dev/null 2> "$work/ingest13.err"
  grep -q "ingested 13 months from store" "$work/ingest13.err"
  cmp "$work/csv13.csv" "$work/store13.csv"
  # Interrupted append: a crash after month 12's segment and dictionary
  # are written but before the MANIFEST commit must leave the 12-month
  # world. One month-12 patient is renamed so the dictionary changes.
  awk -F, 'BEGIN { OFS = "," }
    NR > 1 && $1 == 12 && !renamed { $3 = "patient-renamed"; renamed = 1 }
    { print }' "$work/corpus13.csv" > "$work/corpus13r.csv"
  cp -R "$work/store12" "$work/appended"
  build/tools/mictrend import --corpus "$work/corpus13r.csv" \
    --hospitals "$work/hospitals.csv" --store-dir "$work/appended" \
    --append | grep -q "imported 1 of 13 months"
  cp -R "$work/store12" "$work/torn"
  cp "$work/appended/m0012.seg" "$work"/appended/dict-*.seg "$work/torn/"
  test "$(ls "$work"/torn/dict-*.seg | wc -l)" -eq 2
  build/tools/mictrend pipeline --corpus "$work/corpus12.csv" \
    --store-dir "$work/torn" --min-total 5 --seasonal false \
    --out "$work/torn12.csv" > /dev/null 2> "$work/torn12.err"
  grep -q "ingested 12 months from store" "$work/torn12.err"
  if grep -q "store ingest failed" "$work/torn12.err"; then
    cat "$work/torn12.err" >&2
    exit 1
  fi
  cmp "$work/csv12.csv" "$work/torn12.csv"
  echo "store-smoke OK: store-backed reports byte-identical through append"
  echo "store-smoke OK: an append cut before its MANIFEST commit reads as 12 months"
}

# The mictrend serve gate: start the daemon on a 12-month store, ingest
# month 12 live, and require the served report to byte-match the
# offline pipeline both before and after the swap. The offline
# references are produced with the SAME cache chaining the daemon
# performs (cold 12-month seed, warm 13-month rerun against one cache
# directory) — a warm rebuild chains each month's EM fit from the
# previous snapshot, so a cold offline run would produce a different
# (equally valid) fit and the byte-compare would fail.
serve_smoke() {
  echo "==== serve-smoke: daemon query/ingest identity gate ===="
  if [ ! -x build/tools/mictrend ] || [ ! -x build/bench/bench_serve ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
      -DMICTREND_BUILD_BENCHMARKS=ON
    cmake --build build -j "$(nproc)" --target mictrend bench_serve
  fi
  work="build/serve_smoke_work"
  rm -rf "$work"
  mkdir -p "$work"
  bin=build/tools/mictrend
  # One 13-month world; the daemon starts on the first 12 months and
  # month 12 arrives through the ingest endpoint while it serves.
  $bin generate --out "$work/corpus13.csv" \
    --hospitals-out "$work/hospitals.csv" \
    --months 13 --patients 250 --background 3 --seed 7
  awk -F, 'NR == 1 || $1 != 12' "$work/corpus13.csv" > "$work/corpus12.csv"
  $bin import --corpus "$work/corpus12.csv" \
    --hospitals "$work/hospitals.csv" --store-dir "$work/store" \
    | grep -q "imported 12 of 12 months"
  $bin pipeline --corpus "$work/corpus12.csv" --min-total 5 \
    --seasonal false --cache rw --cache-dir "$work/cache_offline" \
    --out "$work/offline12.csv" > /dev/null
  $bin pipeline --corpus "$work/corpus13.csv" --min-total 5 \
    --seasonal false --cache rw --cache-dir "$work/cache_offline" \
    --out "$work/offline13.csv" > /dev/null
  # Cold 13-month twin for the cache-less tsan daemon round below.
  $bin pipeline --corpus "$work/corpus13.csv" --min-total 5 \
    --seasonal false --out "$work/offline13_cold.csv" > /dev/null

  rm -f "$work/port.txt"
  $bin serve --store-dir "$work/store" --min-total 5 --seasonal false \
    --cache rw --cache-dir "$work/cache_serve" \
    --port 0 --port-file "$work/port.txt" --workers 4 \
    > "$work/serve.log" 2>&1 &
  pid=$!
  await_port "$work/port.txt" "$pid" "$work/serve.log" 240
  port=$(cat "$work/port.txt")

  # Pre-ingest: the served report is the offline 12-month report, byte
  # for byte.
  $bin query --port "$port" --op health --out "$work/health12.json"
  $bin query --port "$port" --op report_csv --out "$work/served12.csv"
  cmp "$work/offline12.csv" "$work/served12.csv"

  # Live ingest of month 12 (full corpus + hospital attributes), then
  # the served report must track the offline 13-month twin.
  $bin query --port "$port" --op ingest --corpus "$work/corpus13.csv" \
    --hospitals "$work/hospitals.csv" --out "$work/ingest.json"
  $bin query --port "$port" --op report_csv --out "$work/served13.csv"
  cmp "$work/offline13.csv" "$work/served13.csv"
  $bin query --port "$port" --op metrics --out "$work/metrics.json"
  python3 - "$work/health12.json" "$work/ingest.json" \
    "$work/metrics.json" << 'EOF'
import json, sys
health, ingest, metrics = (json.load(open(p)) for p in sys.argv[1:4])
assert health["months"] == 12 and health["version"] == 1, health
assert ingest["months"] == 13 and ingest["version"] == 2, ingest
assert ingest["data"]["appended"] == 1, ingest
counters = metrics["data"]["counters"]
# The rebuild warm-started: the first 12 months came from the cache,
# not a full refit.
assert counters["reproduce.snapshot_hits"] >= 12, counters
assert counters["cache.hits"] > 0, counters
assert counters["serve.ingest.months_appended"] == 1, counters
assert counters["serve.snapshots_published"] == 2, counters
EOF

  # Every query endpoint answers from the new snapshot (names are read
  # off the served report, so this stays world-agnostic).
  dis=$(awk -F, '$1 == "disease" { print $2; exit }' "$work/served13.csv")
  med=$(awk -F, '$1 == "medicine" { print $3; exit }' "$work/served13.csv")
  $bin query --port "$port" --op series --kind disease \
    --disease "$dis" > /dev/null
  $bin query --port "$port" --op top_changes --k 5 > /dev/null
  $bin query --port "$port" --op geo_spread --medicines "$med" \
    --snapshot-months 0,6,12 > /dev/null
  $bin query --port "$port" --op hospital_gap --medicine "$med" \
    --top-k 3 > /dev/null

  $bin query --port "$port" --op shutdown > /dev/null
  wait "$pid"
  grep -q "server stopped" "$work/serve.log"

  # A failed accept() must not stop the daemon. Under a 40-descriptor
  # limit, 60 idle connections exhaust the daemon's fds, so accept()
  # fails with EMFILE; once the clients hang up, the daemon must answer
  # again and have counted the failures in serve.accept_errors.
  rm -f "$work/fd_port.txt"
  (
    ulimit -n 40
    exec $bin serve --store-dir "$work/store" --min-total 5 \
      --seasonal false --threads 2 --workers 2 \
      --port 0 --port-file "$work/fd_port.txt"
  ) > "$work/serve_fd.log" 2>&1 &
  fpid=$!
  await_port "$work/fd_port.txt" "$fpid" "$work/serve_fd.log" 240
  fport=$(cat "$work/fd_port.txt")
  python3 - "$fport" << 'EOF'
import socket, sys, time
port = int(sys.argv[1])
idle = [socket.create_connection(("127.0.0.1", port), timeout=10)
        for _ in range(60)]
time.sleep(1)  # the accept loop runs into the descriptor limit
for sock in idle:
    sock.close()
EOF
  if ! $bin query --port "$fport" --op health --timeout-ms 10000 \
      > /dev/null; then
    echo "daemon stopped answering after fd exhaustion:" >&2
    cat "$work/serve_fd.log" >&2
    kill "$fpid" 2>/dev/null || true
    exit 1
  fi
  $bin query --port "$fport" --op metrics --out "$work/fd_metrics.json"
  python3 - "$work/fd_metrics.json" << 'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["data"]["counters"]
assert counters["serve.accept_errors"] > 0, counters
print("serve-smoke: daemon kept serving through fd exhaustion "
      f"({counters['serve.accept_errors']} accept errors)")
EOF
  $bin query --port "$fport" --op shutdown > /dev/null
  wait "$fpid"

  # The load bench at the pinned smoke scale, gated against its
  # committed baseline (deterministic keys must match; timings report).
  out="build/bench/BENCH_serve.json"
  MICTREND_BENCH_PATIENTS=200 \
  MICTREND_BENCH_BACKGROUND=10 \
  MICTREND_BENCH_MAX_SERIES=12 \
  MICTREND_BENCH_JSON="$out" \
    build/bench/bench_serve > build/bench/BENCH_serve.out
  scripts/bench_compare.sh bench/baselines/BENCH_serve.json "$out"
  # A reply held by Nagle's algorithm until the client's delayed ACK
  # takes ~40 ms; a healthy daemon answers this load in well under a
  # millisecond at the median, so 10 ms separates the two on any host.
  python3 - "$out" << 'EOF'
import json, sys
serve = json.load(open(sys.argv[1]))["sections"]["serve"]
assert serve["p50_seconds"] < 0.010, (
    f"serve p50 is {serve['p50_seconds'] * 1000:.1f} ms (>= 10 ms): replies "
    "are stalling on delayed ACKs")
EOF

  # A compact daemon round under ThreadSanitizer when the instrumented
  # binary is already built (the tsan preset's ctest run covers the
  # serve_test hammer either way). `wait` surfaces TSan's exit code.
  if [ -x build-tsan/tools/mictrend ]; then
    rm -f "$work/tsan_port.txt"
    build-tsan/tools/mictrend serve --store-dir "$work/store" \
      --min-total 5 --seasonal false \
      --port 0 --port-file "$work/tsan_port.txt" --workers 4 \
      > "$work/serve_tsan.log" 2>&1 &
    tpid=$!
    await_port "$work/tsan_port.txt" "$tpid" "$work/serve_tsan.log" 600
    tport=$(cat "$work/tsan_port.txt")
    tsan_bin=build-tsan/tools/mictrend
    $tsan_bin query --port "$tport" --op health > /dev/null
    $tsan_bin query --port "$tport" --op ingest > /dev/null  # refresh
    $tsan_bin query --port "$tport" --op report_csv \
      --out "$work/served_tsan.csv"
    cmp "$work/offline13_cold.csv" "$work/served_tsan.csv"
    $tsan_bin query --port "$tport" --op shutdown > /dev/null
    wait "$tpid"
    echo "serve-smoke: tsan daemon round clean"
  fi
  echo "serve-smoke OK: served reports byte-identical through live ingest"
}

# The drill-down rollup gate: the served drilldown document must
# byte-match the offline `mictrend drilldown` build both before and
# after a live ingest, and a warm rerun against a seeded cache must
# reproduce the cold document byte for byte while answering every
# rollup fit from the cache (nonzero hits, zero misses, nonzero leaf
# reuses). Everything runs with --seasonal false: an 11-state dummy
# seasonal cannot be fitted on a 12-month series, so the seasonal
# default would degenerate every fit to a skip and the gate would
# vacuously pass on empty documents.
drill_smoke() {
  echo "==== drill-smoke: drill-down rollup identity gate ===="
  if [ ! -x build/tools/mictrend ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j "$(nproc)" --target mictrend
  fi
  work="build/drill_smoke_work"
  rm -rf "$work"
  mkdir -p "$work"
  bin=build/tools/mictrend
  # Same world shape as serve-smoke: 13 months, daemon starts on the
  # first 12, month 12 arrives live.
  $bin generate --out "$work/corpus13.csv" \
    --hospitals-out "$work/hospitals.csv" \
    --months 13 --patients 250 --background 3 --seed 7
  awk -F, 'NR == 1 || $1 != 12' "$work/corpus13.csv" > "$work/corpus12.csv"
  $bin import --corpus "$work/corpus12.csv" \
    --hospitals "$work/hospitals.csv" --store-dir "$work/store" \
    | grep -q "imported 12 of 12 months"

  # Cold offline twins for each served comparison. The daemon below
  # runs cache-less, so its rebuilds are cold too and the documents
  # compare byte for byte.
  $bin drilldown --corpus "$work/corpus12.csv" \
    --hospitals "$work/hospitals.csv" --min-total 5 --seasonal false \
    --axis medicine --json "$work/offline12.json" > /dev/null
  $bin drilldown --corpus "$work/corpus12.csv" \
    --hospitals "$work/hospitals.csv" --min-total 5 --seasonal false \
    --axis hospital --json "$work/offline12h.json" > /dev/null
  $bin drilldown --corpus "$work/corpus13.csv" \
    --hospitals "$work/hospitals.csv" --min-total 5 --seasonal false \
    --axis medicine --json "$work/offline13.json" > /dev/null

  rm -f "$work/port.txt"
  $bin serve --store-dir "$work/store" --min-total 5 --seasonal false \
    --port 0 --port-file "$work/port.txt" --workers 2 \
    > "$work/serve.log" 2>&1 &
  pid=$!
  await_port "$work/port.txt" "$pid" "$work/serve.log" 240
  port=$(cat "$work/port.txt")

  $bin query --port "$port" --op drilldown --axis medicine \
    --out "$work/served12.json"
  cmp "$work/offline12.json" "$work/served12.json"
  $bin query --port "$port" --op drilldown --axis hospital \
    --out "$work/served12h.json"
  cmp "$work/offline12h.json" "$work/served12h.json"

  $bin query --port "$port" --op ingest --corpus "$work/corpus13.csv" \
    --hospitals "$work/hospitals.csv" > /dev/null
  $bin query --port "$port" --op drilldown --axis medicine \
    --out "$work/served13.json"
  cmp "$work/offline13.json" "$work/served13.json"
  $bin query --port "$port" --op shutdown > /dev/null
  wait "$pid"

  # Warm-cache leg: seed a cache with a cold write run, rerun rw, and
  # require the same bytes with every rollup fit answered from disk.
  $bin drilldown --corpus "$work/corpus13.csv" \
    --hospitals "$work/hospitals.csv" --min-total 5 --seasonal false \
    --axis medicine --json "$work/cold.json" \
    --cache write --cache-dir "$work/cache" > /dev/null
  $bin drilldown --corpus "$work/corpus13.csv" \
    --hospitals "$work/hospitals.csv" --min-total 5 --seasonal false \
    --axis medicine --json "$work/warm.json" \
    --cache rw --cache-dir "$work/cache" \
    --metrics-out "$work/warm_metrics.json" > /dev/null
  cmp "$work/cold.json" "$work/warm.json"
  python3 - "$work/warm_metrics.json" << 'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters["trend.rollup.cache_hits"] > 0, counters
assert counters["trend.rollup.cache_misses"] == 0, counters
assert counters["trend.rollup.leaf_reuses"] > 0, counters
assert counters["cache.read_errors"] == 0, counters
EOF
  echo "drill-smoke OK: drill documents byte-identical served and cached"
}

# The telemetry gate: a daemon under a little query load must answer
# lint-clean OpenMetrics on /metrics (twice, so counter monotonicity is
# checked across scrapes), a parseable /varz whose window payload
# matches the framed `stats` op structurally, and an access log with
# one JSON record per request. When the ASan+UBSan build exists, one
# compact daemon round (health + /metrics scrape + shutdown) runs under
# it — `wait` surfaces the sanitizer's exit code.
obs_smoke() {
  echo "==== obs-smoke: windowed telemetry + OpenMetrics exposition gate ===="
  if [ ! -x build/tools/mictrend ]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j "$(nproc)" --target mictrend
  fi
  work="build/obs_smoke_work"
  rm -rf "$work"
  mkdir -p "$work"
  bin=build/tools/mictrend
  $bin generate --out "$work/corpus.csv" \
    --hospitals-out "$work/hospitals.csv" \
    --months 12 --patients 250 --background 3 --seed 7
  $bin import --corpus "$work/corpus.csv" \
    --hospitals "$work/hospitals.csv" --store-dir "$work/store" \
    | grep -q "imported 12 of 12 months"

  rm -f "$work/port.txt"
  $bin serve --store-dir "$work/store" --min-total 5 --seasonal false \
    --port 0 --port-file "$work/port.txt" --workers 2 \
    --access-log "$work/access.jsonl" \
    > "$work/serve.log" 2>&1 &
  pid=$!
  await_port "$work/port.txt" "$pid" "$work/serve.log" 240
  port=$(cat "$work/port.txt")

  # A little framed load so the windows have something to show.
  $bin query --port "$port" --op health > /dev/null
  $bin query --port "$port" --op health > /dev/null
  $bin query --port "$port" --op top_changes --k 3 > /dev/null

  # Two /metrics scrapes with more load in between: the lint checks
  # both for format violations and the pair for counter monotonicity.
  fetch() {
    python3 -c 'import sys, urllib.request
body = urllib.request.urlopen(sys.argv[1], timeout=30).read()
sys.stdout.buffer.write(body)' "http://127.0.0.1:$port$1"
  }
  fetch /metrics > "$work/scrape1.txt"
  $bin query --port "$port" --op health > /dev/null
  $bin query --port "$port" --op stats --out "$work/stats.json"
  fetch /metrics > "$work/scrape2.txt"
  python3 scripts/openmetrics_lint.py "$work/scrape1.txt" "$work/scrape2.txt"

  fetch /healthz | grep -qx "ok"
  fetch /varz > "$work/varz.json"
  python3 - "$work/varz.json" "$work/stats.json" << 'EOF'
import json, sys
varz = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))["data"]
# /varz and the framed stats op render the same registry: identical
# window set; every channel the earlier stats payload saw is still in
# /varz (the HTTP requests in between may have added http.* channels,
# so equality only holds one way here).
assert varz["slot_width_seconds"] == stats["slot_width_seconds"], varz
assert sorted(varz["windows"]) == sorted(stats["windows"]), varz
for window in varz["windows"]:
    missing = set(stats["windows"][window]) - set(varz["windows"][window])
    assert not missing, f"{window}: channels {missing} lost from /varz"
minute = varz["windows"]["60s"]
assert minute["serve.health"]["count"] >= 3, minute["serve.health"]
assert minute["serve.health"]["errors"] == 0, minute["serve.health"]
assert minute["serve.top_changes"]["count"] >= 1, minute
EOF

  $bin query --port "$port" --op shutdown > /dev/null
  wait "$pid"

  # Every request the daemon handled is one JSON line with a unique id.
  python3 - "$work/access.jsonl" << 'EOF'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
assert len(records) >= 9, f"expected >= 9 access records, got {len(records)}"
ids = [record["id"] for record in records]
assert len(set(ids)) == len(ids), "duplicate request ids in access log"
endpoints = {record["endpoint"] for record in records}
assert "health" in endpoints and "/metrics" in endpoints, endpoints
for record in records:
    assert "latency_seconds" in record and "ts" in record, record
EOF
  echo "obs-smoke: access log complete with unique request ids"

  # Each framed op's channel totals are its only per-op counters, and
  # the three sinks agree on them: /varz, the second scrape's _total
  # samples, and the access log (whose last record, the shutdown, came
  # after both fetches).
  python3 - "$work/varz.json" "$work/scrape1.txt" "$work/scrape2.txt" \
    "$work/access.jsonl" << 'EOF'
import json, re, sys
varz = json.load(open(sys.argv[1]))
scrapes = [open(path).read() for path in sys.argv[2:4]]
records = [json.loads(line) for line in open(sys.argv[4])]
for scrape in scrapes:
    assert "mictrend_serve_requests_" not in scrape, "per-op counter family"
samples = {}
for line in scrapes[1].splitlines():
    match = re.match(
        r'mictrend_channel_(requests|errors)_total\{channel="([^"]+)"\} (\S+)$',
        line)
    if match:
        samples[match[1], match[2]] = float(match[3])
logged = {}
for record in records:
    if record["transport"] != "frame" or record["endpoint"] == "shutdown":
        continue
    count = logged.setdefault(record["endpoint"], [0, 0])
    count[0] += 1
    count[1] += not record["ok"]
totals = varz["totals"]
ops = {name[len("serve."):] for name in totals
       if name.startswith("serve.") and name != "serve.swap.drain"}
assert {"health", "top_changes", "stats"} <= set(logged) <= ops, (logged, ops)
for op in sorted(ops):
    channel = "serve." + op
    seen = [totals[channel]["requests"], totals[channel]["errors"]]
    scraped = [samples["requests", channel], samples["errors", channel]]
    assert seen == scraped == logged.get(op, [0, 0]), (op, seen, scraped,
                                                       logged.get(op))
assert totals["serve.health"]["errors"] == 0, totals["serve.health"]
EOF
  echo "obs-smoke: per-op totals agree across /varz, /metrics and the access log"

  # One daemon round under ASan+UBSan when the instrumented binary is
  # already built.
  if [ -x build-asan/tools/mictrend ]; then
    rm -f "$work/asan_port.txt"
    build-asan/tools/mictrend serve --store-dir "$work/store" \
      --min-total 5 --seasonal false \
      --port 0 --port-file "$work/asan_port.txt" --workers 2 \
      --access-log "$work/access_asan.jsonl" \
      > "$work/serve_asan.log" 2>&1 &
    apid=$!
    await_port "$work/asan_port.txt" "$apid" "$work/serve_asan.log" 600
    aport=$(cat "$work/asan_port.txt")
    build-asan/tools/mictrend query --port "$aport" --op health > /dev/null
    build-asan/tools/mictrend query --port "$aport" --op stats > /dev/null
    python3 -c 'import sys, urllib.request
body = urllib.request.urlopen(sys.argv[1], timeout=60).read()
assert body.endswith(b"# EOF\n"), body[-80:]' \
      "http://127.0.0.1:$aport/metrics"
    build-asan/tools/mictrend query --port "$aport" --op shutdown > /dev/null
    wait "$apid"
    echo "obs-smoke: asan daemon round clean"
  fi
  echo "obs-smoke OK: lint-clean exposition, matching stats/varz, full access log"
}

# The benchmark harness compiles ../src outside the CMake tree (into the
# gitignored .bench_build/), so a src/ change that breaks it would
# otherwise only show at the next benchmark run. Build it and run its
# own tests.
perfbench_smoke() {
  echo "==== perfbench-smoke: benchmark harness build + selftest ===="
  python3 perfbench/run.py --selftest
  echo "perfbench-smoke OK"
}

supports_presets() {
  cmake --list-presets >/dev/null 2>&1
}

sanitizer_for() {
  case "$1" in
    tsan) echo "thread" ;;
    asan) echo "address,undefined" ;;
    *) echo "" ;;
  esac
}

for preset in $PRESETS; do
  if [ "$preset" = "bench-smoke" ]; then
    bench_smoke
    continue
  fi
  if [ "$preset" = "cache-smoke" ]; then
    cache_smoke
    continue
  fi
  if [ "$preset" = "store-smoke" ]; then
    store_smoke
    continue
  fi
  if [ "$preset" = "serve-smoke" ]; then
    serve_smoke
    continue
  fi
  if [ "$preset" = "drill-smoke" ]; then
    drill_smoke
    continue
  fi
  if [ "$preset" = "perf-smoke" ]; then
    perf_smoke
    continue
  fi
  if [ "$preset" = "obs-smoke" ]; then
    obs_smoke
    continue
  fi
  if [ "$preset" = "perfbench-smoke" ]; then
    perfbench_smoke
    continue
  fi
  echo "==== ${preset}: configure + build + test ===="
  if supports_presets; then
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset"
  else
    build_dir="build"
    [ "$preset" != "default" ] && build_dir="build-$preset"
    sanitize="$(sanitizer_for "$preset")"
    cmake -B "$build_dir" -S . \
      -DCMAKE_BUILD_TYPE="$([ -n "$sanitize" ] && echo RelWithDebInfo || echo Release)" \
      -DMICTREND_SANITIZE="$sanitize" \
      -DMICTREND_BUILD_BENCHMARKS="$([ -n "$sanitize" ] && echo OFF || echo ON)" \
      -DMICTREND_BUILD_EXAMPLES="$([ -n "$sanitize" ] && echo OFF || echo ON)"
    cmake --build "$build_dir" -j "$(nproc)"
    (cd "$build_dir" && ctest --output-on-failure)
  fi
done
echo "all stages green"

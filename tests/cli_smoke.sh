#!/bin/sh
# End-to-end smoke test of the mictrend CLI: generate -> stats ->
# reproduce -> detect -> pipeline, plus a custom --world config.
# Usage: cli_smoke.sh <path-to-mictrend-binary> <work-dir>
set -e

MICTREND="$1"
WORK="$2"
mkdir -p "$WORK"

"$MICTREND" generate --out "$WORK/corpus.csv" \
  --hospitals-out "$WORK/hospitals.csv" \
  --months 12 --patients 250 --background 3 --seed 7

test -s "$WORK/corpus.csv"
test -s "$WORK/hospitals.csv"

"$MICTREND" stats --corpus "$WORK/corpus.csv" | grep -q "months: 12"

"$MICTREND" reproduce --corpus "$WORK/corpus.csv" \
  --out "$WORK/series.csv" --min-total 5
test -s "$WORK/series.csv"
head -1 "$WORK/series.csv" | grep -q "kind,disease,medicine,values"

"$MICTREND" detect --series "$WORK/series.csv" --algorithm approx \
  --seasonal false --margin 4 --min-tail 3 > "$WORK/detect.csv"
head -1 "$WORK/detect.csv" | grep -q "kind,disease,medicine,change"

"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --out "$WORK/report.csv" | grep -q "reproduced"
test -s "$WORK/report.csv"

# The parallel runtime must reproduce the serial pipeline bit for bit.
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --threads 4 \
  --out "$WORK/report_mt.csv" | grep -q "reproduced"
cmp "$WORK/report.csv" "$WORK/report_mt.csv"

# The removed --runtime-stats flag is rejected with a pointer to its
# replacement, not a generic unknown-flag error.
if "$MICTREND" pipeline --corpus "$WORK/corpus.csv" --runtime-stats \
    > "$WORK/rts.out" 2>&1; then
  echo "expected failure for removed --runtime-stats" >&2
  exit 1
fi
grep -q -- "--metrics-out" "$WORK/rts.out" || {
  echo "--runtime-stats rejection must name --metrics-out" >&2
  exit 1
}

# --metrics-out writes valid JSON with the pipeline's counters, and the
# counters section is bit-identical across thread counts.
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --seasonal false --out "$WORK/r1.csv" --threads 1 \
  --metrics-out "$WORK/m1.json" 2>&1 | grep -q "wrote metrics to"
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --seasonal false --out "$WORK/r4.csv" --threads 4 \
  --metrics-out "$WORK/m4.json" > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/m1.json" "$WORK/m4.json" << 'EOF'
import json, sys
one, four = (json.load(open(path)) for path in sys.argv[1:3])
for key in ("em.fits", "em.iterations", "ssm.kalman_passes",
            "changepoint.aic_evaluations", "trend.series_analyzed",
            "reproduce.months_fitted", "runtime.threads"):
    assert key in one["counters"] or key in one["gauges"], key
assert one["counters"] == four["counters"], "counters differ by threads"
assert "pipeline/reproduce/em_fit" in one["timers"], "missing span timer"
EOF
else
  grep -q '"em.iterations"' "$WORK/m1.json"
fi

# --trace-out writes parseable Chrome-trace JSON with begin/end pairs
# and ParallelFor chunk events nested under their owning span path;
# --log-json writes a JSON-lines run log that opens with the run_start
# metadata record.
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --seasonal false --threads 4 --trace-out "$WORK/trace.json" \
  --log-json "$WORK/run.jsonl" 2>&1 | grep -q "wrote trace to"
test -s "$WORK/trace.json"
test -s "$WORK/run.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/trace.json" "$WORK/run.jsonl" << 'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert "droppedEvents" in trace, "missing drop accounting"
begins = [e for e in events if e.get("ph") == "B"]
ends = [e for e in events if e.get("ph") == "E"]
assert len(begins) == len(ends), "unbalanced begin/end events"
chunked = {e["name"] for e in begins if "chunk" in e.get("args", {})}
assert any(n.startswith("pipeline/") for n in chunked), \
    f"chunk events not nested under the pipeline span: {chunked}"
records = [json.loads(line) for line in open(sys.argv[2])]
assert records[0]["event"] == "run_start", records[0]
assert records[0]["threads"] == 4, records[0]
assert all("ts" in r and "level" in r and "message" in r
           for r in records), "malformed log record"
EOF
else
  grep -q '"traceEvents"' "$WORK/trace.json"
  grep -q '"run_start"' "$WORK/run.jsonl"
fi

# detect honors --threads and --metrics-out too.
"$MICTREND" detect --series "$WORK/series.csv" --algorithm approx \
  --seasonal false --margin 4 --min-tail 3 --threads 2 \
  --metrics-out "$WORK/detect_metrics.json" > "$WORK/detect_mt.csv"
cmp "$WORK/detect.csv" "$WORK/detect_mt.csv"
grep -q '"changepoint.approximate.aic_evaluations"' \
  "$WORK/detect_metrics.json"

# mic::cache incremental engine: a cold seeding run (--cache=write)
# followed by a warm rerun (--cache=rw) against the same directory must
# write a byte-identical report while serving hits from the cache.
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --seasonal false --cache write --cache-dir "$WORK/cache" \
  --out "$WORK/cache_cold.csv" > /dev/null
"$MICTREND" pipeline --corpus "$WORK/corpus.csv" --min-total 5 \
  --seasonal false --cache rw --cache-dir "$WORK/cache" \
  --out "$WORK/cache_warm.csv" \
  --metrics-out "$WORK/cache_metrics.json" > /dev/null
cmp "$WORK/cache_cold.csv" "$WORK/cache_warm.csv"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/cache_metrics.json" << 'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("cache.hits", 0) > 0, counters
assert counters.get("cache.misses", 1) == 0, counters
assert counters.get("cache.read_errors", 1) == 0, counters
assert counters.get("trend.series_cache_hits", 0) > 0, counters
EOF
else
  grep -q '"cache.hits"' "$WORK/cache_metrics.json"
fi

# Invalid cache flag combinations are rejected naming the flag.
if "$MICTREND" pipeline --corpus "$WORK/corpus.csv" --cache rw \
    > "$WORK/cache_err.out" 2>&1; then
  echo "expected failure for --cache without --cache-dir" >&2
  exit 1
fi
grep -q -- "--cache-dir" "$WORK/cache_err.out" || {
  echo "cache rejection must name --cache-dir" >&2
  exit 1
}

# mic::store persistent claim store: import seeds a columnar store,
# and a store-backed pipeline run writes a byte-identical report to
# the CSV-backed run at 1 and 4 threads. Drop any store a previous
# smoke run left behind — import refuses to overwrite one.
rm -rf "$WORK/store"
"$MICTREND" import --corpus "$WORK/corpus.csv" \
  --hospitals "$WORK/hospitals.csv" \
  --store-dir "$WORK/store" | grep -q "imported 12 of 12 months"
test -s "$WORK/store/MANIFEST"
# One dictionary, named by the fingerprint the MANIFEST records.
test "$(ls "$WORK"/store/dict-*.seg | wc -l)" -eq 1
test -s "$(ls "$WORK"/store/dict-*.seg)"
test -s "$WORK/store/m0000.seg"
"$MICTREND" pipeline --store-dir "$WORK/store" --corpus "$WORK/corpus.csv" \
  --min-total 5 --out "$WORK/report_store.csv" \
  2> "$WORK/store_ingest.err" > /dev/null
grep -q "ingested 12 months from store" "$WORK/store_ingest.err"
cmp "$WORK/report.csv" "$WORK/report_store.csv"
"$MICTREND" pipeline --store-dir "$WORK/store" --corpus "$WORK/corpus.csv" \
  --min-total 5 --threads 4 --out "$WORK/report_store_mt.csv" > /dev/null 2>&1
cmp "$WORK/report.csv" "$WORK/report_store_mt.csv"

# Re-importing the same corpus without --append is refused (the store
# is a commit log, not a scratch dir), while --append is a no-op that
# reports zero new months.
if "$MICTREND" import --corpus "$WORK/corpus.csv" \
    --store-dir "$WORK/store" > "$WORK/import_err.out" 2>&1; then
  echo "expected failure for re-import without --append" >&2
  exit 1
fi
grep -q -- "--append" "$WORK/import_err.out"
"$MICTREND" import --corpus "$WORK/corpus.csv" --store-dir "$WORK/store" \
  --append | grep -q "imported 0 of 12 months"

# A corrupt segment degrades to a warned cold CSV parse, not a crash
# and not silent bad data.
cp "$WORK/store/m0003.seg" "$WORK/m0003.seg.bak"
printf 'garbage' > "$WORK/store/m0003.seg"
"$MICTREND" stats --corpus "$WORK/corpus.csv" \
  --store-dir "$WORK/store" > "$WORK/stats_fallback.out" \
  2> "$WORK/store_fallback.err"
grep -q "warning: store ingest failed" "$WORK/store_fallback.err"
grep -q "falling back to cold CSV parse" "$WORK/store_fallback.err"
grep -q "months: 12" "$WORK/stats_fallback.out"
cp "$WORK/m0003.seg.bak" "$WORK/store/m0003.seg"

# Store flag mistakes are rejected naming the fix.
if "$MICTREND" pipeline --corpus "$WORK/corpus.csv" --store mmap \
    > "$WORK/store_err.out" 2>&1; then
  echo "expected failure for --store without --store-dir" >&2
  exit 1
fi
grep -q -- "--store-dir" "$WORK/store_err.out"
if "$MICTREND" pipeline --corpus "$WORK/corpus.csv" \
    --store bogus --store-dir "$WORK/store" \
    > "$WORK/store_err2.out" 2>&1; then
  echo "expected failure for bogus --store backend" >&2
  exit 1
fi
grep -q "auto, mmap" "$WORK/store_err2.out"

# Hierarchical drill-down: a hand-written corpus with one stepped
# medicine ("step-ramp" jumps 2 -> 8 at month 12, "step-flat" stays 3)
# must put a detected change on every aggregate above the ramp, and the
# subgroup search must walk all -> step -> step-ramp and name the ramp
# as the driver of the whole shift.
{
  echo "month,hospital,patient,diseases,medicines"
  m=0
  while [ "$m" -lt 24 ]; do
    if [ "$m" -lt 12 ]; then ramp=2; else ramp=8; fi
    p=0
    while [ "$p" -lt 4 ]; do
      echo "$m,hospital-0,patient-$p,flu:2,step-ramp:$ramp;step-flat:3"
      p=$((p + 1))
    done
    m=$((m + 1))
  done
} > "$WORK/step.csv"
"$MICTREND" drilldown --corpus "$WORK/step.csv" --min-total 5 \
  --axis medicine --out "$WORK/step_drill.csv" \
  --json "$WORK/step_drill.json" \
  --explain all --explain-out "$WORK/step_explain.json" \
  > "$WORK/step_drill.out"
head -1 "$WORK/step_drill.csv" | grep -q "axis,node,parent,depth,leaf"
grep -q "driver: step-ramp (100.0% of the shift)" "$WORK/step_drill.out"
grep -q '"driver":"step-ramp"' "$WORK/step_explain.json"

# The drill-down tree is bit-identical at 1 and 4 threads.
"$MICTREND" drilldown --corpus "$WORK/step.csv" --min-total 5 \
  --axis medicine --threads 4 --json "$WORK/step_drill_mt.json" > /dev/null
cmp "$WORK/step_drill.json" "$WORK/step_drill_mt.json"

# Axis and flag mistakes are rejected naming the offender.
if "$MICTREND" drilldown --corpus "$WORK/step.csv" --axis city \
    > "$WORK/drill_err.out" 2>&1; then
  echo "expected failure for unknown drill axis" >&2
  exit 1
fi
grep -q "city" "$WORK/drill_err.out"
if "$MICTREND" drilldown --corpus "$WORK/step.csv" --axis medicine \
    --explain-out "$WORK/x.json" > "$WORK/drill_err2.out" 2>&1; then
  echo "expected failure for --explain-out without --explain" >&2
  exit 1
fi
grep -q -- "--explain" "$WORK/drill_err2.out"

# mictrend serve: a compact daemon round trip against the store seeded
# above — health, then the served report must byte-match the offline
# `pipeline --out` artifact (both run cold with the same defaults), then
# a clean shutdown through the protocol.
rm -f "$WORK/serve_port.txt"
"$MICTREND" serve --store-dir "$WORK/store" --min-total 5 \
  --port 0 --port-file "$WORK/serve_port.txt" --workers 2 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -s "$WORK/serve_port.txt" ]; do
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve daemon died during startup:" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  i=$((i + 1))
  if [ "$i" -gt 240 ]; then
    echo "serve daemon never wrote the port file" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.5
done
SERVE_PORT=$(cat "$WORK/serve_port.txt")
"$MICTREND" query --port "$SERVE_PORT" --op health | grep -q '"ok":true'
"$MICTREND" query --port "$SERVE_PORT" --op report_csv \
  --out "$WORK/served.csv"
cmp "$WORK/report.csv" "$WORK/served.csv"
# An error envelope exits non-zero and names the code.
if "$MICTREND" query --port "$SERVE_PORT" --op series --kind disease \
    --disease no-such-disease > "$WORK/query_err.out" 2>&1; then
  echo "expected failure for an unknown series name" >&2
  exit 1
fi
grep -q '"not_found"' "$WORK/query_err.out"
# Windowed telemetry: the stats op reports the requests above, and the
# HTTP /varz body on the same port carries the same window/channel
# structure (values move between the two reads, so only keys compare).
"$MICTREND" query --port "$SERVE_PORT" --op stats --out "$WORK/stats.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/stats.json" "$SERVE_PORT" << 'EOF'
import json, sys, urllib.request
stats = json.load(open(sys.argv[1]))
assert stats["ok"] is True, stats
data = stats["data"]
assert data["slot_width_seconds"] > 0 and data["slots"] > 0, data
minute = data["windows"]["60s"]
assert minute["serve.health"]["count"] >= 1, minute["serve.health"]
assert minute["serve.report_csv"]["count"] >= 1, minute
assert minute["serve.series"]["errors"] >= 1, minute["serve.series"]
varz = json.loads(urllib.request.urlopen(
    f"http://127.0.0.1:{sys.argv[2]}/varz", timeout=30).read())
assert sorted(varz["windows"]) == sorted(data["windows"]), varz
for window in varz["windows"]:
    assert sorted(varz["windows"][window]) == \
        sorted(data["windows"][window]), window
print("stats/varz window payloads structurally identical")
EOF
fi
# The served drill-down document is byte-identical to the offline
# `drilldown --json` twin over the same months (same tree, same
# renderer), and the registry rejects cross-op flags client-side.
"$MICTREND" drilldown --corpus "$WORK/corpus.csv" --min-total 5 \
  --axis medicine --json "$WORK/drill_offline.json" > /dev/null
"$MICTREND" query --port "$SERVE_PORT" --op drilldown --axis medicine \
  --out "$WORK/drill_served.json"
cmp "$WORK/drill_offline.json" "$WORK/drill_served.json"
if "$MICTREND" query --port "$SERVE_PORT" --op health --axis medicine \
    > "$WORK/query_err2.out" 2>&1; then
  echo "expected failure for a cross-op query flag" >&2
  exit 1
fi
grep -q -- "--axis does not apply to op 'health'" "$WORK/query_err2.out"
if "$MICTREND" query --port "$SERVE_PORT" --op explain --axis medicine \
    --node no-such-node > "$WORK/query_err3.out" 2>&1; then
  echo "expected failure for an unknown explain node" >&2
  exit 1
fi
grep -q '"not_found"' "$WORK/query_err3.out"
"$MICTREND" query --port "$SERVE_PORT" --op shutdown > /dev/null
wait "$SERVE_PID"
grep -q "server stopped" "$WORK/serve.log"

# Every JSON example in the wire-protocol reference must parse: the doc
# is normative, so a stale example is a test failure.
PROTOCOL_DOC="$(dirname "$0")/../docs/serve_protocol.md"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$PROTOCOL_DOC" << 'EOF'
import json, sys
blocks, current = [], None
for line in open(sys.argv[1]):
    stripped = line.strip()
    if current is None and stripped == "```json":
        current = []
    elif current is not None and stripped == "```":
        blocks.append("".join(current))
        current = None
    elif current is not None:
        current.append(line)
assert current is None, "unterminated ```json fence"
assert len(blocks) >= 10, f"expected >= 10 JSON examples, found {len(blocks)}"
for i, block in enumerate(blocks):
    try:
        json.loads(block)
    except Exception as error:
        raise AssertionError(f"example {i + 1} is not valid JSON: {error}\n{block}")
print(f"serve_protocol.md: {len(blocks)} JSON examples parse")
EOF
fi

# Undeclared flags are rejected, and the usage screen the parser
# validates against advertises the pipeline detector flags.
if "$MICTREND" pipeline --corpus "$WORK/corpus.csv" --bogus 2>/dev/null; then
  echo "expected failure for unknown flag" >&2
  exit 1
fi
"$MICTREND" 2>&1 | grep -q -- "--algorithm" || {
  echo "usage screen is missing the pipeline detector flags" >&2
  exit 1
}

# Custom world config.
cat > "$WORK/world.cfg" << 'EOF'
config,months=6,seed=5
hospitals,count=4,small=0.5,medium=0.4,large=0.1
patients,count=80,visit=0.5,boost=0.3,acute=1.5
city,only,weight=1
disease,flu,weight=1.0,intensity=1.0
medicine,antiviral,indication=flu:1.0
EOF
"$MICTREND" generate --world "$WORK/world.cfg" --out "$WORK/c2.csv"
"$MICTREND" stats --corpus "$WORK/c2.csv" | grep -q "months: 6"

# Unknown subcommand exits non-zero.
if "$MICTREND" bogus 2>/dev/null; then
  echo "expected failure for unknown subcommand" >&2
  exit 1
fi

echo "cli smoke OK"

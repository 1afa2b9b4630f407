#!/usr/bin/env bash
# Regenerates the machine-readable bench baselines and the committed
# flight-recorder trace.
#
#   tools/run_bench.sh [output.json] [trace.json.gz] [micro.json]
#
# Builds bench_service_churn and bench_solver_micro in ./build
# (override with BUILD_DIR) and runs them with --json, writing
# BENCH_service.json and BENCH_solver_micro.json by default. The files
# are the checked-in perf trajectory: re-run after perf-relevant
# changes and commit the diff alongside them, so wins land as numbers
# and regressions as reviewable diffs. BENCH_service.json includes a
# checkpoint-overhead record (export / atomic-write / restore timings,
# docs/ARCHITECTURE.md §9) next to the throughput scenarios. The benches' shape checks gate
# the run (exit 1 on failure); absolute timings are machine-dependent
# and meaningful only relative to earlier records from comparable
# hardware.
#
# The second output (default TRACE_drift.json.gz) is the
# flight-recorder capture of the drift-heavy replay,
# validated by tools/check_trace.py (schema + >= 90% of every
# re-planning round's wall time attributed to named spans,
# docs/ARCHITECTURE.md §7) and gzipped for commit.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_service.json}
TRACE_OUT=${2:-TRACE_drift.json.gz}
MICRO_OUT=${3:-BENCH_solver_micro.json}

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_service_churn --target bench_solver_micro >/dev/null

TRACE_RAW=$(mktemp /tmp/sqpr_trace.XXXXXX.json)
AUDIT_RAW=$(mktemp /tmp/sqpr_audit.XXXXXX.jsonl)
SERIES_RAW=$(mktemp /tmp/sqpr_series.XXXXXX.jsonl)
trap 'rm -f "$TRACE_RAW" "$AUDIT_RAW" "$SERIES_RAW"' EXIT

"$BUILD_DIR/bench_service_churn" --json "$OUT" --trace-out "$TRACE_RAW" \
  --audit-out "$AUDIT_RAW" --metrics-series-out "$SERIES_RAW"

python3 tools/check_trace.py "$TRACE_RAW" \
  --min-round-coverage 0.9 --require-rounds

# The instrumented replay's decision audit journal and metrics series
# must join into complete per-query lifecycles (same gate as CI).
python3 tools/sqpr_inspect.py "$AUDIT_RAW" --trace "$TRACE_RAW" \
  --metrics "$SERIES_RAW" --require-complete

gzip -9 -c "$TRACE_RAW" > "$TRACE_OUT"

"$BUILD_DIR/bench_solver_micro" --json "$MICRO_OUT"

echo "wrote $OUT, $MICRO_OUT and $TRACE_OUT" \
  "($(stat -c%s "$TRACE_OUT") bytes gzipped)"

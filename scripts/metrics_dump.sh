#!/usr/bin/env bash
# Metrics-dump path: runs the engine server demo with its telemetry dump
# flags and drops the exposition artifacts at the repo root —
#   METRICS_PR5.prom  Prometheus text exposition
#   TRACE_PR5.json    chrome://tracing event dump of the trace ring
# The server runs SelfCheckPrometheus on its own exposition and exits
# nonzero when the format check fails, so a broken exposition fails this
# script (and any check.sh run that invoked it).
#
# Usage: scripts/metrics_dump.sh [build_dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

"$BUILD_DIR/example_engine_server" \
  --metrics-out=METRICS_PR5.prom \
  --trace-out=TRACE_PR5.json

# The server's readers route through the compiled-arena estimate path, so
# the dump must carry the query-side series: the sampled latency
# distribution and the query counter. Their absence means the query
# telemetry regressed even if the format self-check passed.
for series in dynhist_query_latency_ns_count \
              dynhist_engine_queries_total; do
  if ! grep -q "^$series" METRICS_PR5.prom; then
    echo "metrics_dump: FAIL — series '$series' missing from exposition" >&2
    exit 1
  fi
done

echo "metrics_dump: wrote METRICS_PR5.prom TRACE_PR5.json"

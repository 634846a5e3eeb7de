#!/usr/bin/env bash
# One-command regression check: check the include dependency direction
# (scripts/check_deps.sh: histogram/ <- engine/ <- distributed/),
# configure, build, run the full test suite, then smoke-run the merge-pipeline, concurrent-engine, and distributed
# frame micro-benchmarks in quick mode (micro_merge_pipeline exits
# nonzero if the publish-path speedup or parity criteria regress;
# micro_engine_throughput exits nonzero if async publish stops cutting
# boundary-op p99 latency >= 5x, if telemetry costs more than 5% of
# ingest throughput, or if the compiled-snapshot query path drops below
# 6x the snapshot piece-walk baseline; micro_dist_frames exits nonzero if
# loopback frame ingest falls under 10k frames/sec or duplicate frames
# cause any merges; micro_st_feedback exits nonzero if feedback-trained
# accuracy falls under 2x the untrained equi-width baseline or the
# 4-shard merged model drifts more than 10% from unmerged), and finally
# the multi-process loopback smoke test
# (scripts/loopback_smoke.sh: real server + client over 127.0.0.1 with
# bit-identical and idempotence gates) and the repository benchmark's
# self-test (perfbench/run.py --self-test: exits nonzero when a
# workload's output checks fail) and the A/B script's self-test
# (scripts/perf_ab.py --self-test: its statistics and verdicts).
#
# Usage: scripts/check.sh [--bench-json] [--metrics-json] [build_dir]
#   (default build dir: build)
#
# --bench-json additionally captures the benches' machine-readable series
# (one JSON object per line) into BENCH_PR10.json at the repo root — the
# perf-trajectory record (BENCH_PR2..PR9.json hold the
# earlier-era series). The file leads with a `_meta` line recording the
# capture environment: the core count `nproc` reports, and a note on what
# the multi-thread series measure at that count (on one core,
# batching/pipelining wins only; on several, parallel scaling too).
#
# --metrics-json additionally runs scripts/metrics_dump.sh after the
# benches, dropping the engine's Prometheus exposition and its trace
# (METRICS_PR5.prom / TRACE_PR5.json, the latter the JSON the flag is
# named for) at the repo root next to the BENCH_*.json series. The dump
# runs the Prometheus format self-check and the whole check fails if the
# exposition does.
#
# This is the tier-1 sequence from ROADMAP.md plus the benches, so a single
# run catches build breaks, unit/concurrency regressions, and gross
# merge-pipeline / engine throughput / accuracy regressions.

set -euo pipefail

cd "$(dirname "$0")/.."

# Refuse to run from a dirty in-source build: a stray top-level
# CMakeCache.txt/CMakeFiles (from `cmake .`) poisons every later
# out-of-source configure with cached settings, and in-source object files
# are exactly the artifact mess .gitignore exists to keep out of the repo.
if [[ -e CMakeCache.txt || -d CMakeFiles ]]; then
  echo "check.sh: refusing to run: in-source build artifacts found at the" >&2
  echo "repo root (CMakeCache.txt / CMakeFiles). Remove them and use an" >&2
  echo "out-of-source build dir, e.g.: rm -rf CMakeCache.txt CMakeFiles" >&2
  exit 2
fi

BENCH_JSON=0
METRICS_JSON=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --bench-json) BENCH_JSON=1 ;;
    --metrics-json) METRICS_JSON=1 ;;
    --*) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [[ "$(realpath -m "$BUILD_DIR")" == "$(realpath .)" ]]; then
  echo "check.sh: refusing an in-source build dir ('$BUILD_DIR')" >&2
  exit 2
fi
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== dependency direction =="
scripts/check_deps.sh

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

run_bench() {
  # Runs a bench, teeing its stdout; with --bench-json the JSON series
  # lines (and only those) are appended to BENCH_PR10.json.
  if [[ "$BENCH_JSON" == 1 ]]; then
    "$@" --json | tee /dev/stderr | grep '^{' >> BENCH_PR10.json
  else
    "$@"
  fi
}

if [[ "$BENCH_JSON" == 1 ]]; then
  CORES="$(nproc 2>/dev/null || echo 1)"
  if [[ "$CORES" -gt 1 ]]; then
    NOTE="captured on $CORES cores; the multi-thread series measure parallel scaling as well as batching/pipelining"
  else
    NOTE="captured on 1 core; the multi-thread series measure batching/pipelining, not parallel scaling"
  fi
  printf '{"bench":"_meta","series":"environment","cores":%s,"note":"%s"}\n' \
    "$CORES" "$NOTE" > BENCH_PR10.json
fi

echo "== merge-pipeline micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_merge_pipeline" --quick

echo "== engine micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_engine_throughput" --quick

echo "== distributed frame micro-bench (quick) =="
# Exits nonzero if loopback frame ingest drops below 10k frames/sec on
# one core or if duplicate frames cause any merges at all.
run_bench "$BUILD_DIR/micro_dist_frames" --quick

echo "== self-tuning feedback micro-bench (quick) =="
# Exits nonzero if the feedback-trained model is not >= 2x better than
# the untrained equi-width baseline or the 4-shard merged model drifts
# more than 10% from the unmerged one.
run_bench "$BUILD_DIR/micro_st_feedback" --quick

echo "== loopback smoke (server + client over 127.0.0.1) =="
scripts/loopback_smoke.sh "$BUILD_DIR"

echo "== benchmark self-test (perfbench output checks) =="
# Builds perfbench into .bench_build/ on first use, then runs its
# self-tests and a short pass of every workload.
python3 perfbench/run.py --self-test

echo "== A/B comparison self-test (scripts/perf_ab.py) =="
# Checks the A/B script's statistics and verdicts; runs no benchmark.
python3 scripts/perf_ab.py --self-test

if [[ "$BENCH_JSON" == 1 ]]; then
  echo "== bench series written to BENCH_PR10.json =="
fi

if [[ "$METRICS_JSON" == 1 ]]; then
  echo "== metrics dump (exposition self-check gate) =="
  scripts/metrics_dump.sh "$BUILD_DIR"
fi

echo "== check.sh: all green =="

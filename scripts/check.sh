#!/usr/bin/env bash
# One-command regression check: the tier-1 sequence from ROADMAP.md plus
# the quick micro-bench gates, the paper figure benches, a loopback smoke
# test and two self-tests, so a single run catches build breaks,
# unit/concurrency regressions, aborts in a paper figure, and gross
# merge-pipeline / engine / wire / accuracy regressions. Steps:
#
#   dependency direction  scripts/check_deps.sh fails when a lower layer
#                         includes a higher one (histogram/ <- engine/ <-
#                         distributed/).
#   configure, build, ctest (the full test suite).
#   quick bench gates     each bench exits nonzero when a gate fails.
#   paper figure benches  every fig*/ablation* bench with --quick; fails
#                         when one exits nonzero (an abort in a paper
#                         figure). Only the exit status is checked: fig13
#                         prints wall-clock times, and float output may
#                         differ across compilers.
#   loopback smoke        scripts/loopback_smoke.sh: a real engine_server
#                         --serve process against engine_client over
#                         127.0.0.1; fails unless wire estimates are
#                         bit-identical to the in-process merge and a
#                         forced re-ship is all duplicates.
#   benchmark self-test   perfbench/run.py --self-test: builds perfbench
#                         into .bench_build/ and fails when a workload's
#                         output checks (mass conservation, epochs, wire
#                         answers equal to the in-process merge) fail.
#   A/B self-test         scripts/perf_ab.py --self-test: the statistics
#                         and verdicts of the alternating A/B runner.
#   metrics dump          with --metrics-json only: scripts/metrics_dump.sh
#                         writes the engine's Prometheus exposition and
#                         trace (METRICS_PR5.prom / TRACE_PR5.json) at the
#                         repo root and fails when the exposition flunks
#                         its format self-check.
#
# The gates. Every timed gate takes its statistic from the benches' one
# timing helper (bench/bench_util.h): after a warm-up round, 19 rounds in
# which the arm that has run the least takes the next step until each has
# run for at least 200 ms, so cheap and costly arms share one stretch of
# wall-clock time. A ratio gate decides on the median of the 19 per-round
# ratios, and each gate prints its statistic as median [p25, p75] n.
#
#   micro_merge_pipeline
#     publish speedup, pieces path over cell reference, domain 1e6  >= 10x
#     pieces publish growth, largest over smallest domain           <= 20x
#     mass parity (relative) and KS parity with the cell reference  <= 1e-9
#   micro_engine_throughput
#     telemetry overhead, 1-writer ingest, on vs off                <= 5%
#     boundary-op p99 ingest latency, sync over async (manual pump) >= 5x
#     1-reader queries: raw arena over snapshot piece walk          >= 6x
#     1-reader queries: cached-handle batches over raw arena        >= 0.85x
#     1-reader queries: cached-handle batches over string key       >= 3x
#     lease misses == handle reader threads                         (exact)
#   micro_dist_frames
#     loopback frame ingest, best depth's median                    >= 10k/s
#     merges caused by re-sent duplicate frames                     == 0
#   micro_st_feedback (one-shot, deterministic)
#     feedback-trained accuracy over untrained equi-width baseline  >= 2x
#     4-shard merged error over unmerged                            <= 1.10x
#
# Usage: scripts/check.sh [--metrics-json] [build_dir]
#   (default build dir: build)

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

METRICS_JSON=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
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

echo "== merge-pipeline micro-bench (quick) =="
"$BUILD_DIR/micro_merge_pipeline" --quick

echo "== engine micro-bench (quick) =="
"$BUILD_DIR/micro_engine_throughput" --quick

echo "== distributed frame micro-bench (quick) =="
"$BUILD_DIR/micro_dist_frames" --quick

echo "== self-tuning feedback micro-bench (quick) =="
"$BUILD_DIR/micro_st_feedback" --quick

echo "== paper figure benches (quick; exit status only) =="
for bench in "$BUILD_DIR"/fig* "$BUILD_DIR"/ablation*; do
  echo "-- $(basename "$bench")"
  "$bench" --quick > /dev/null
done

echo "== loopback smoke (server + client over 127.0.0.1) =="
scripts/loopback_smoke.sh "$BUILD_DIR"

echo "== benchmark self-test (perfbench output checks) =="
# Builds perfbench into .bench_build/ on first use, then runs its
# self-tests and a short pass of every workload.
python3 perfbench/run.py --self-test

echo "== A/B comparison self-test (scripts/perf_ab.py) =="
# Checks the A/B script's statistics and verdicts; runs no benchmark.
python3 scripts/perf_ab.py --self-test

if [[ "$METRICS_JSON" == 1 ]]; then
  echo "== metrics dump (exposition self-check gate) =="
  scripts/metrics_dump.sh "$BUILD_DIR"
fi

echo "== check.sh: all green =="

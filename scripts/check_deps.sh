#!/usr/bin/env bash
# Dependency-direction check: histogram/ <- engine/ <- distributed/.
# Fails when a file under a lower layer includes a higher one:
#   src/{histogram,common,data,metrics,sampling,cluster,telemetry}/ may not
#   include src/{engine,distributed,estimate}/;
#   src/{engine,estimate,telemetry}/ may not include src/distributed/.
#
# Usage: scripts/check_deps.sh   (from anywhere in the repository)

set -euo pipefail

cd "$(dirname "$0")/.."

violations="$(
  grep -rnE '#include "src/(engine|distributed|estimate)/' \
    src/histogram src/common src/data src/metrics src/sampling \
    src/cluster src/telemetry || true
  grep -rnE '#include "src/distributed/' \
    src/engine src/estimate src/telemetry || true
)"
if [[ -n "$violations" ]]; then
  echo "$violations" >&2
  echo "check_deps: FAIL — includes against histogram/ <- engine/ <-" \
       "distributed/" >&2
  exit 1
fi
echo "check_deps: dependency direction holds"

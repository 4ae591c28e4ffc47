#!/usr/bin/env bash
# Builds dtrec_bench from source on first use, then runs it with the given
# arguments from the repository root, e.g.
#
#   bash benchmark/run.sh --workload coat_cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the result line stays the last line of
# stdout. A failed build exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build=build-bench
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j4 --target dtrec_bench >&2
exec "$build/dtrec_bench" "$@"

#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments,
# from the root of a checkout:
#
#   bash bench/perf/run.sh --workload flash-crowd --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so stdout is the benchmark's alone.  The
# dune cache is off so the build reads and writes only this checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
dune build --root . --cache=disabled --display=quiet bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"

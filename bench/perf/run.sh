#!/usr/bin/env bash
# Build perf.exe from source and run one workload of the benchmark:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr, so the last
# line on stdout is the JSON result. The dune cache is disabled so that the
# build reads and writes nothing outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe bench "$@"

#!/usr/bin/env bash
# Build odes and the benchmark from the checkout's sources, then run one
# workload:
#
#   bash perfbench/run.sh --workload ingest|stockroom|fleet \
#        --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; the
# result object is the last line of stdout. Everything the run writes
# stays in the checkout (_build, .bench_run).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/odes.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi

mkdir -p .bench_run/tmp
export DUNE_CACHE=disabled TMPDIR="$PWD/.bench_run/tmp"
dune build --root . ./bin/odes.exe ./perfbench/bench.exe 1>&2

exec ./_build/default/perfbench/bench.exe \
  --odes ./_build/default/bin/odes.exe --run-dir .bench_run "$@"

#!/bin/sh
# Builds spinbench.exe from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload web --seed 1 --seconds 10 --trace 0
#
# Build output goes to .bench_build/ (and to standard error), the dune
# cache is off, so nothing is written outside the checkout. Standard
# output is the benchmark's alone; its last line is the JSON result.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: $(pwd) is not a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --cache=disabled \
  ./bench/e2e/spinbench.exe 1>&2
exec ./.bench_build/default/bench/e2e/spinbench.exe "$@"

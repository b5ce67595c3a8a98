#!/bin/sh
# Build the benchmark and the fcd daemon from source, then run one
# workload. Run from the repository root:
#
#   sh perfbench/run.sh --workload flight-vcomp --seed 2026 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries the benchmark's report,
# whose last line is the JSON result (see perfbench/README.md).
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a vericomp checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/fcd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

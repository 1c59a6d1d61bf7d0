#!/usr/bin/env bash
# Build lidbench from this checkout's sources, then run it with the given
# arguments.  Run from the repository root, e.g.
#
#   bash bench/core/lidbench.sh run serve-sweep --seed 1
#   bash bench/core/lidbench.sh all --seed 2 --out runs.jsonl
#
# The build goes to _build/ (dune's shared cache is off, so nothing is
# written outside the checkout); its output goes to stderr, keeping the
# last line of stdout the run's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/core/lidbench.exe 1>&2
exec ./_build/default/bench/core/lidbench.exe "$@"

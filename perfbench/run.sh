#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through:
#   bash perfbench/run.sh --workload paper|fleet|soak|all --seed N \
#     --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result.
set -euo pipefail
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

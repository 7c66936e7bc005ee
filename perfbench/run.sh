#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout of the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/perfbench.exe ./bin/rap_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"

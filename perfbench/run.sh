#!/usr/bin/env bash
# Builds the host-cost benchmark from source in this checkout and runs
# it; every argument goes to the benchmark:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build stays inside the checkout: dune's shared cache is off.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet ./perfbench/main.exe -- "$@"

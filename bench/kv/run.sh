#!/usr/bin/env bash
# Build kv_server and kvbench from source, then run kvbench with the given
# arguments, from the root of the repository:
#
#   bash bench/kv/run.sh --workload leaderboard --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is kvbench's
# JSON result.  Fails (without a result) when the sources are missing.
set -euo pipefail
cd "$(dirname "$0")/../.."
# the dune cache lives outside the checkout; build without it
DUNE_CACHE=disabled dune build --root . bin/kv_server.exe bench/kv/kvbench.exe 1>&2
exec ./_build/default/bench/kv/kvbench.exe "$@"

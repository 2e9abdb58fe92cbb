#!/usr/bin/env bash
# CI gate for the design-space explorer (DESIGN.md §13). Checks, in
# order:
#
# 1. **Run-to-run byte-identity** — two `uecgra dse --json` runs of
#    the same loop must produce byte-identical reports (the evaluation
#    cache lives for one process, so each run starts cold).
# 2. **Thread-count determinism** — the full `dse_sweep` report must
#    be byte-identical between UECGRA_THREADS=1 and 8 (`dse_sweep`
#    itself enforces the frontier-dominates-greedy gate and the RTL
#    cross-check on every kernel).
# 3. **Schema round-trip** — the dse reports must survive
#    `uecgra check-report` (parse + canonical re-render, byte compare).
#
# The memoization gate (a warm rerun in one process measures nothing)
# is the dse crate's `exploration_is_deterministic_and_cache_transparent`
# test.
# Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "ci-dse: unknown argument $1" >&2
    exit 2
fi

cargo build --release -q -p uecgra-core -p uecgra-bench \
    --bin uecgra --bin dse_sweep

SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "== CLI: two runs, byte compare"
./target/release/uecgra dse examples/accumulate.loop --json "${SCRATCH}/first.json"
./target/release/uecgra dse examples/accumulate.loop --json "${SCRATCH}/second.json"
cmp "${SCRATCH}/first.json" "${SCRATCH}/second.json"
./target/release/uecgra check-report "${SCRATCH}/first.json"

echo "== sweep: 1 vs 8 threads, byte compare"
UECGRA_THREADS=1 ./target/release/dse_sweep --json "${SCRATCH}/sweep-t1.json"
UECGRA_THREADS=8 ./target/release/dse_sweep --json "${SCRATCH}/sweep-t8.json"
cmp "${SCRATCH}/sweep-t1.json" "${SCRATCH}/sweep-t8.json"
./target/release/uecgra check-report "${SCRATCH}/sweep-t1.json"

echo "ci-dse: all gates passed"

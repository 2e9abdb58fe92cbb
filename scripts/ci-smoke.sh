#!/usr/bin/env bash
# CI smoke gate: build the self-timing harness and run it at the small
# problem size. The harness fails (non-zero exit) if any kernel's
# functional memory image diverges from the host reference, or if the
# 1-thread and N-thread runs are not bit-identical. It takes no
# arguments.
#
# On runners with >= 4 hardware threads the parallel speedup gate is
# enforced too (UECGRA_SMOKE_MIN_SPEEDUP, default 3.0 at 8 threads per
# the reproduction's target); on smaller machines it is report-only,
# since a 1-core container cannot physically speed anything up.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "ci-smoke: unknown argument $1" >&2
    exit 2
fi

CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
if [ "${CORES}" -ge 4 ] && [ -z "${UECGRA_SMOKE_MIN_SPEEDUP:-}" ]; then
    export UECGRA_SMOKE_MIN_SPEEDUP=3.0
fi

echo "ci-smoke: ${CORES} hardware threads," \
     "speedup gate: ${UECGRA_SMOKE_MIN_SPEEDUP:-disabled}"

cargo run --release -q -p uecgra-bench --bin smoke_timing

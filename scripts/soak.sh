#!/usr/bin/env bash
# Soak test for tier-1 determinism: runs the test binaries whose tests
# share process-global state (the run cache and memos, metrics
# counters, span sinks, the SIMD dispatch switch), plus the job
# server's timing-based robustness suite (150 ms socket timeouts), 20
# times at the default thread count and 20 times at GOPIM_THREADS=1,
# in debug like `cargo test -q`. Stops at the first failing run, shows
# its output, and prints the tally either way.
#
#   scripts/soak.sh
#
# Takes tens of minutes, so it is not part of scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

ITERATIONS=20
SHARED_STATE_TESTS=(
    -p gopim --lib
    --test cache_differential --test serve_differential --test determinism
    --test kernel_equivalence --test faults_differential --test trace_determinism
)
UNIT_TESTS=(-p gopim-cache -p gopim-obs --lib)
SERVE_TESTS=(-p gopim-serve --test robustness)

LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

echo "== soak: building test binaries =="
cargo test -q --offline --no-run "${SHARED_STATE_TESTS[@]}"
cargo test -q --offline --no-run "${UNIT_TESTS[@]}"
cargo test -q --offline --no-run "${SERVE_TESTS[@]}"

passed_default=0
passed_serial=0
tally() {
    echo "soak: default threads ${passed_default}/${ITERATIONS} passed," \
        "GOPIM_THREADS=1 ${passed_serial}/${ITERATIONS} passed"
}

# One soak iteration; `env` entries (possibly none) prefix every run.
run_once() {
    env "$@" cargo test -q --offline "${SHARED_STATE_TESTS[@]}" >"$LOG" 2>&1 &&
        env "$@" cargo test -q --offline "${UNIT_TESTS[@]}" >>"$LOG" 2>&1 &&
        env "$@" cargo test -q --offline "${SERVE_TESTS[@]}" >>"$LOG" 2>&1
}

for leg in default serial; do
    settings=()
    [ "$leg" = serial ] && settings=(GOPIM_THREADS=1)
    for i in $(seq 1 "$ITERATIONS"); do
        if ! run_once ${settings[@]+"${settings[@]}"}; then
            echo "== soak: run $i (${leg}) FAILED =="
            tail -n 60 "$LOG"
            tally
            exit 1
        fi
        if [ "$leg" = serial ]; then
            passed_serial=$i
        else
            passed_default=$i
        fi
        echo "soak: ${leg} run $i/${ITERATIONS} passed"
    done
done
tally

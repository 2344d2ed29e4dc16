#!/usr/bin/env bash
# Determinism & hermeticity linter: tokenizes every workspace source
# and enforces the repo contracts (no wall clock in simulation code,
# no unordered hash iteration, no external dependencies, no panics or
# prints in library crates) plus the concurrency pass (lock-order
# inversions, guards held across blocking calls, condvar waits without
# a loop), ratcheting against lint-baseline.json — any finding beyond
# the committed baseline fails the run.
#
# The JSON report lands in results/lint.json (override the directory
# with GOPIM_RESULTS_DIR) and is schema-checked with the same in-repo
# parser that validates the campaign/bench output.
#
# Flags (forwarded to `gopim lint`):
#   --prune-stale      drop baseline budget no finding still uses
#   --update-baseline  regrandfather every current finding
set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS_DIR="${GOPIM_RESULTS_DIR:-results}"
mkdir -p "$RESULTS_DIR"

LINT_ARGS=()
for arg in "$@"; do
    case "$arg" in
    --prune-stale | --update-baseline) LINT_ARGS+=("$arg") ;;
    *)
        echo "lint.sh: unknown argument '$arg'" >&2
        exit 2
        ;;
    esac
done

GOPIM_LINT_JSON="$RESULTS_DIR/lint.json" \
    cargo run --release --offline -p gopim --bin gopim -- lint ${LINT_ARGS[@]+"${LINT_ARGS[@]}"}
cargo run --release --offline -p gopim --bin gopim -- repro faults \
    --validate "$RESULTS_DIR/lint.json"

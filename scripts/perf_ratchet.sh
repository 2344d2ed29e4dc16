#!/usr/bin/env bash
# Perf ratchet: run the curated smoke-bench suite (the linalg and
# sparse-aggregation kernels at square, MLP and GCN-training shapes,
# one GCN training epoch, degree-profile generation (ddi, collab,
# proteins — cap 35,820, the costliest calibration per vertex — ppa,
# products and one predictor-sized draw) and ranking, the
# Time Predictor's sample generation, inference and training (ten
# epochs of a 64-wide net; 30 epochs of the paper's 10-256-1 predictor
# at `predictor_fit`'s 868 rows, tail batch included), the workload
# build (products under GoPIM's interleaved mapping and ISU, products
# index-based and updating every vertex as the five other systems
# build it — `build_workload/products-index` — and ppa under GoPIM —
# `build_workload/ppa`), and the runner's warm memo working set — fast,
# single-process, scheduler-light) and
# compare it against the committed baseline with `gopim bench-diff
# --ratchet`. Mirrors the lint ratchet: the baseline is a
# committed artifact, drift beyond the tolerance band fails the run,
# and an explicit update flow rewrites it.
#
#   scripts/perf_ratchet.sh                                # check
#   GOPIM_BENCH_BASELINE=update scripts/perf_ratchet.sh    # rewrite baseline
#
# Knobs:
#   GOPIM_BENCH_TOLERANCE  ratchet band as a fraction (default 0.5 —
#                          generous, because the committed baseline and
#                          the verifying machine rarely share hardware)
#   GOPIM_BENCH_SAMPLES    samples per benchmark (default 11)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="bench-baseline.jsonl"
# With GOPIM_RESULTS_DIR set, the freshly measured records are kept
# there (perf_ratchet_current.jsonl) instead of a throwaway tmpdir, so
# CI can archive what the ratchet actually compared.
if [ -n "${GOPIM_RESULTS_DIR:-}" ]; then
    mkdir -p "$GOPIM_RESULTS_DIR"
    RATCHET_DIR="$(cd "$GOPIM_RESULTS_DIR" && pwd)"
else
    RATCHET_DIR=$(mktemp -d)
    trap 'rm -rf "$RATCHET_DIR"' EXIT
fi
# Absolute path: cargo runs bench binaries with the package directory
# as their cwd (see scripts/reproduce.sh).
CURRENT="$RATCHET_DIR/perf_ratchet_current.jsonl"
rm -f "$CURRENT"

echo "== perf-ratchet: smoke-bench suite (linalg + aggregate + gcn epoch + graph + predictor + runner + pipeline builds) =="
GOPIM_BENCH_FAST=1 GOPIM_BENCH_SAMPLES="${GOPIM_BENCH_SAMPLES:-11}" \
GOPIM_BENCH_JSON="$CURRENT" \
    cargo bench --offline -p gopim-bench --bench linalg --bench aggregate --bench gcn --bench graph \
    --bench predictor --bench runner
# Of the pipeline bench only the products and ppa builds join the
# ratchet: its microsecond-scale simulate/DES cases would add noise to
# the gate without guarding a layer the cold sweep spends time in.
GOPIM_BENCH_FAST=1 GOPIM_BENCH_SAMPLES="${GOPIM_BENCH_SAMPLES:-11}" \
GOPIM_BENCH_JSON="$CURRENT.pipeline" \
    cargo bench --offline -p gopim-bench --bench pipeline
grep -E '"id":"pipeline/build_workload/(products|products-index|ppa)"' \
    "$CURRENT.pipeline" >> "$CURRENT"
rm -f "$CURRENT.pipeline"

if [ "${GOPIM_BENCH_BASELINE:-}" = "update" ]; then
    cp "$CURRENT" "$BASELINE"
    echo "perf-ratchet: baseline rewritten at $BASELINE ($(wc -l < "$BASELINE") records)"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "perf-ratchet: no $BASELINE committed; seed it with:" >&2
    echo "  GOPIM_BENCH_BASELINE=update scripts/perf_ratchet.sh" >&2
    exit 1
fi

echo "== perf-ratchet: bench-diff against $BASELINE =="
cargo run --release --offline -p gopim -- bench-diff --ratchet \
    --tolerance "${GOPIM_BENCH_TOLERANCE:-0.5}" "$BASELINE" "$CURRENT"

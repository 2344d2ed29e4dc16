#!/usr/bin/env bash
# Regenerates every paper table/figure plus the extensions and the
# acceptance check. Outputs land in results/. Takes ~40 minutes at full
# scale (fig09 trains eleven 800-epoch MLPs); add --quick for a fast
# smoke pass.
set -euo pipefail
cd "$(dirname "$0")/.."
EXTRA="${1:-}"

# Output directory override: set GOPIM_RESULTS_DIR to write somewhere
# other than ./results (e.g. a per-run scratch dir on CI). Resolved to
# an absolute path because cargo runs the benches with the package
# directory as their cwd.
RESULTS_DIR="${GOPIM_RESULTS_DIR:-$PWD/results}"
mkdir -p "$RESULTS_DIR"
RESULTS_DIR="$(cd "$RESULTS_DIR" && pwd)"
METRICS_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR"' EXIT
EXPERIMENTS=(table02 table03 fig04 fig05 fig06 fig09 fig10 fig13 fig14 \
             fig15 fig16 fig17 table05 table06 table07 \
             ablation endurance xbar_size shapecheck)
for exp in "${EXPERIMENTS[@]}"; do
    echo "== $exp =="
    # GOPIM_METRICS and GOPIM_MANIFEST are output-invariant (stdout stays
    # byte-identical); the stderr report feeds the per-experiment cache
    # summary below, and the manifest records what produced each result
    # (config hash, thread count, env, metrics, span aggregates).
    GOPIM_METRICS=1 GOPIM_MANIFEST="$RESULTS_DIR/$exp.manifest.json" \
        cargo run --release -p gopim --bin gopim -- repro "$exp" $EXTRA \
        2> "$METRICS_DIR/$exp.err" | tee "$RESULTS_DIR/$exp.txt" \
        || { cat "$METRICS_DIR/$exp.err" >&2; exit 1; }
done

# Per-experiment run-cache traffic: with GOPIM_CACHE set, reruns of an
# unchanged tree are served from disk and the hit column fills up.
echo "== run-cache summary =="
printf '%-12s %10s %10s %10s\n' experiment hits misses disk_hits
for exp in "${EXPERIMENTS[@]}"; do
    awk -v name="$exp" '
        $1 == "counter" && $2 == "cache.hits"      { hits = $3 }
        $1 == "counter" && $2 == "cache.misses"    { misses = $3 }
        $1 == "counter" && $2 == "cache.disk_hits" { disk = $3 }
        END { printf "%-12s %10d %10d %10d\n", name, hits, misses, disk }
    ' "$METRICS_DIR/$exp.err"
done

# Microbenchmarks: human summary to the console, JSON-lines trajectory
# appended under results/ for trend tracking across runs.
echo "== microbenchmarks =="
rm -f "$RESULTS_DIR/bench.jsonl"
# Absolute path: cargo runs benches with the *package* directory as
# their cwd, so a relative GOPIM_BENCH_JSON would land (or fail) in
# crates/core/ instead of the repo root.
BENCH_JSON="$RESULTS_DIR/bench.jsonl"
if [ "$EXTRA" = "--quick" ]; then
    GOPIM_BENCH_FAST=1 GOPIM_BENCH_JSON="$BENCH_JSON" \
        cargo bench --offline -p gopim --bench '*'
else
    GOPIM_BENCH_JSON="$BENCH_JSON" cargo bench --offline -p gopim --bench '*'
fi
echo "All outputs written to $RESULTS_DIR (bench trajectories: bench.jsonl,"
echo "run manifests: <experiment>.manifest.json)."

#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline, with no registry
# access. Runs the format check, a release build, clippy with warnings
# as errors, the full test suite (unit + property + integration +
# golden snapshot diffs) twice — once serial (GOPIM_THREADS=1) and once
# at the default pool size, so any thread-count-dependent result fails
# the run — then the bitwise suites once more on the release build, and
# makes sure every bench target still compiles.
set -euo pipefail
cd "$(dirname "$0")/.."

# The flag rule every GOPIM_* switch follows (gopim_obs::env): on for
# 1/true/yes/on in any case, off otherwise.
flag_on() { case "${1,,}" in 1 | true | yes | on) return 0 ;; *) return 1 ;; esac; }

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo clippy --offline (all targets, warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== gopim lint (serial + default legs) =="
# The linter report must not depend on the pool size: run the ratchet
# check under both thread settings the test suite uses.
GOPIM_THREADS=1 scripts/lint.sh
scripts/lint.sh

echo "== cargo test --offline, GOPIM_THREADS=1 (serial reference) =="
GOPIM_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test --offline, default GOPIM_THREADS (parallel) =="
cargo test -q --offline --workspace

echo "== cargo test --offline, GOPIM_NO_SIMD=1 (baseline-ISA build of the kernels) =="
# The SIMD switch must be a pure dispatch knob, never a numerics knob:
# the whole suite — bitwise goldens and the differential equivalence
# harness included — must pass on the baseline-ISA build of the same
# kernels as well as on the AVX2 build.
GOPIM_NO_SIMD=1 cargo test -q --offline --workspace

echo "== cargo test --release --offline (bitwise suites on optimized code) =="
# The legs above run debug builds, while every experiment and benchmark
# runs optimized code, which may arrange floating-point work differently:
# the bitwise differential, golden and determinism suites must also hold
# on the release build.
cargo test -q --release --offline -p gopim-graph --test profile_differential
cargo test -q --release --offline -p gopim \
    --test kernel_equivalence --test golden_paper --test determinism

echo "== bench targets compile =="
cargo build --offline -p gopim --bench '*'

echo "== traced smoke run (fig04 --quick) =="
# Telemetry must be output-invariant: a traced run's stdout must match
# a plain run byte-for-byte, and the emitted Chrome trace must be valid
# JSON carrying spans from every instrumented layer. The same run now
# exercises the whole observatory: profile report, folded stacks, and
# a schema-valid manifest with nonzero span aggregates.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
    > "$SMOKE_DIR/plain.out"
GOPIM_TRACE="$SMOKE_DIR/trace.json" GOPIM_METRICS=1 \
    GOPIM_PROFILE="$SMOKE_DIR/profile.txt" \
    GOPIM_PROFILE_FOLDED="$SMOKE_DIR/folded.txt" \
    GOPIM_MANIFEST="$SMOKE_DIR/manifest.json" \
    cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
    > "$SMOKE_DIR/traced.out" 2> "$SMOKE_DIR/traced.err"
diff -u "$SMOKE_DIR/plain.out" "$SMOKE_DIR/traced.out" \
    || { echo "verify: tracing changed fig04 stdout"; exit 1; }
grep -q "== gopim metrics ==" "$SMOKE_DIR/traced.err" \
    || { echo "verify: GOPIM_METRICS=1 printed no metrics report"; exit 1; }
cargo run --release --offline -p gopim-obs --example validate_trace -- \
    "$SMOKE_DIR/trace.json" \
    linalg.matmul par. pipeline.simulate runner.run_system sim.
# The validator requires the effective-config section, naming every
# knob the program parses; the traced run's own knobs must read as set.
cargo run --release --offline -p gopim-obs --example validate_manifest -- \
    "$SMOKE_DIR/manifest.json" --require-spans
grep -q '"GOPIM_METRICS": "on"' "$SMOKE_DIR/manifest.json" \
    || { echo "verify: manifest config does not record GOPIM_METRICS=on"; exit 1; }
grep -q "== gopim profile ==" "$SMOKE_DIR/profile.txt" \
    || { echo "verify: GOPIM_PROFILE wrote no profile report"; exit 1; }
grep -q "p95" "$SMOKE_DIR/profile.txt" \
    || { echo "verify: profile report carries no quantile columns"; exit 1; }
# Folded stacks: every line must be "path <integer-ns>" with a nested
# path (a ';') appearing somewhere — fig04 nests matmuls under the
# runner span.
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { bad = 1 } /;/ { nested = 1 }
     END { exit (bad || !nested) }' "$SMOKE_DIR/folded.txt" \
    || { echo "verify: folded-stack export is malformed"; exit 1; }

echo "== unknown-knob smoke (fig04 --quick with a misspelled knob) =="
# A typo must change nothing but stderr: stdout stays byte-identical
# to the plain run, and exactly one warning names the misspelled knob
# (GOPIM_LOG pinned so an inherited level cannot hide it).
GOPIM_LOG=info GOPIM_NOCACHE=1 cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
    > "$SMOKE_DIR/typo.out" 2> "$SMOKE_DIR/typo.err"
diff -u "$SMOKE_DIR/plain.out" "$SMOKE_DIR/typo.out" \
    || { echo "verify: a misspelled knob changed fig04 stdout"; exit 1; }
[ "$(grep -c '^\[gopim warn\]' "$SMOKE_DIR/typo.err")" = 1 ] \
    && grep -q '^\[gopim warn\].*GOPIM_NOCACHE' "$SMOKE_DIR/typo.err" \
    || { cat "$SMOKE_DIR/typo.err"; echo "verify: want exactly one warning naming GOPIM_NOCACHE"; exit 1; }

echo "== bench-diff smoke (committed BENCH trajectories) =="
# The classified comparison table over real record files, plus the
# trajectory view — both must render without error.
cargo run --release --offline -p gopim -- bench-diff \
    BENCH_pr2.json BENCH_pr7.json > "$SMOKE_DIR/benchdiff.out"
grep -q "verdict" "$SMOKE_DIR/benchdiff.out" \
    || { echo "verify: bench-diff printed no classified table"; exit 1; }
cargo run --release --offline -p gopim -- bench-diff --trajectory \
    BENCH_pr2.json BENCH_pr3.json BENCH_pr6.json BENCH_pr7.json \
    > "$SMOKE_DIR/trajectory.out"
grep -q "BENCH_pr7" "$SMOKE_DIR/trajectory.out" \
    || { echo "verify: trajectory table missing a file column"; exit 1; }

if ! flag_on "${GOPIM_NO_PERF_RATCHET:-}"; then
    echo "== perf ratchet (skip with GOPIM_NO_PERF_RATCHET=1) =="
    scripts/perf_ratchet.sh
else
    echo "== perf ratchet skipped (GOPIM_NO_PERF_RATCHET=1) =="
fi

echo "== run-cache smoke (fig04 --quick, cold vs warm disk tier) =="
# The run cache must be a pure speed knob: a warm rerun against a
# just-populated GOPIM_CACHE directory must print byte-identical stdout
# and actually be served from the disk tier (nonzero cache.disk_hits).
CACHE_DIR="$SMOKE_DIR/run_cache"
mkdir -p "$CACHE_DIR"
GOPIM_CACHE="$CACHE_DIR" GOPIM_METRICS=1 \
    cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
    > "$SMOKE_DIR/cache_cold.out" 2> "$SMOKE_DIR/cache_cold.err"
GOPIM_CACHE="$CACHE_DIR" GOPIM_METRICS=1 \
    cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
    > "$SMOKE_DIR/cache_warm.out" 2> "$SMOKE_DIR/cache_warm.err"
diff -u "$SMOKE_DIR/cache_cold.out" "$SMOKE_DIR/cache_warm.out" \
    || { echo "verify: warm cached fig04 stdout differs from cold run"; exit 1; }
diff -u "$SMOKE_DIR/plain.out" "$SMOKE_DIR/cache_warm.out" \
    || { echo "verify: cached fig04 stdout differs from uncached run"; exit 1; }
awk '$1 == "counter" && $2 == "cache.hits" && $3 > 0 { found = 1 }
     END { exit !found }' "$SMOKE_DIR/cache_warm.err" \
    || { echo "verify: warm fig04 run reported no cache hits"; exit 1; }
awk '$1 == "counter" && $2 == "cache.disk_hits" && $3 > 0 { found = 1 }
     END { exit !found }' "$SMOKE_DIR/cache_warm.err" \
    || { echo "verify: warm fig04 run never touched the disk tier"; exit 1; }

echo "== cold sweep smoke (fig14 --quick, GOPIM_NO_CACHE=1) =="
# A sweep runs the cells that share a (dataset, seed) on one degree
# profile even with the memos off: the cold run must print the plain
# run's stdout byte for byte and build exactly one profile for ddi's
# four ablation cells.
cargo run --release --offline -p gopim --bin gopim -- repro fig14 --quick \
    > "$SMOKE_DIR/fig14_plain.out"
GOPIM_NO_CACHE=1 GOPIM_METRICS=1 \
    cargo run --release --offline -p gopim --bin gopim -- repro fig14 --quick \
    > "$SMOKE_DIR/fig14_cold.out" 2> "$SMOKE_DIR/fig14_cold.err"
diff -u "$SMOKE_DIR/fig14_plain.out" "$SMOKE_DIR/fig14_cold.out" \
    || { echo "verify: GOPIM_NO_CACHE changed fig14 stdout"; exit 1; }
awk '$1 == "counter" && $2 == "runner.profiles_built" { n = $3 }
     END { exit !(n == 1) }' "$SMOKE_DIR/fig14_cold.err" \
    || { echo "verify: cold fig14 did not build exactly one profile"; exit 1; }

echo "== cold dispatch-order smoke (fig04 + fig17, GOPIM_NO_CACHE=1, 1 vs default threads) =="
# A sweep hands its profile groups to the pool largest dataset first,
# so products' cells run beside the small groups: the full cold fig04
# and fig17 must print the same stdout byte for byte on one thread and
# on the default pool.
for exp in fig04 fig17; do
    GOPIM_NO_CACHE=1 GOPIM_THREADS=1 \
        cargo run --release --offline -p gopim --bin gopim -- repro "$exp" \
        > "$SMOKE_DIR/${exp}_cold_t1.out"
    GOPIM_NO_CACHE=1 cargo run --release --offline -p gopim --bin gopim -- repro "$exp" \
        > "$SMOKE_DIR/${exp}_cold_pool.out"
    diff -u "$SMOKE_DIR/${exp}_cold_t1.out" "$SMOKE_DIR/${exp}_cold_pool.out" \
        || { echo "verify: cold $exp stdout depends on the thread count"; exit 1; }
done

echo "== row-sparse GCN smoke (fig16 --quick, GOPIM_NO_CACHE=1) =="
# Fig. 16's θ sweep trains with ISU staleness, so its epochs must skip
# the stale rows' combination and backward work: the cold run must
# print the plain run's stdout byte for byte and report skipped rows.
cargo run --release --offline -p gopim --bin gopim -- repro fig16 --quick \
    > "$SMOKE_DIR/fig16_plain.out"
GOPIM_NO_CACHE=1 GOPIM_METRICS=1 \
    cargo run --release --offline -p gopim --bin gopim -- repro fig16 --quick \
    > "$SMOKE_DIR/fig16_cold.out" 2> "$SMOKE_DIR/fig16_cold.err"
diff -u "$SMOKE_DIR/fig16_plain.out" "$SMOKE_DIR/fig16_cold.out" \
    || { echo "verify: GOPIM_NO_CACHE changed fig16 stdout"; exit 1; }
awk '$1 == "counter" && $2 == "gcn.isu.rows_skipped" && $3 > 0 { found = 1 }
     END { exit !found }' "$SMOKE_DIR/fig16_cold.err" \
    || { echo "verify: cold fig16 skipped no stale GCN rows"; exit 1; }

if ! flag_on "${GOPIM_NO_SERVE:-}"; then
    echo "== serve smoke (loadgen --quick; skip with GOPIM_NO_SERVE=1) =="
    # The job server must survive a mixed burst over the wire protocol:
    # loadgen binds an ephemeral in-process server, drives a seeded
    # simulation/allocation/prediction mix from concurrent clients, and
    # exits nonzero unless every job completed and the server drained
    # cleanly. The metrics report must carry nonzero serve.* counters
    # and the manifest must validate with the serve fields recorded.
    GOPIM_METRICS=1 GOPIM_MANIFEST="$SMOKE_DIR/serve_manifest.json" \
        cargo run --release --offline -p gopim --bin gopim -- loadgen --quick \
        > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err"
    grep -q "jobs done" "$SMOKE_DIR/serve.out" \
        || { echo "verify: loadgen printed no completion line"; exit 1; }
    grep -q "p50" "$SMOKE_DIR/serve.out" \
        || { echo "verify: loadgen printed no latency quantiles"; exit 1; }
    awk '$1 == "counter" && $2 == "serve.jobs_submitted" && $3 > 0 { s = 1 }
         $1 == "counter" && $2 == "serve.jobs_completed" && $3 > 0 { c = 1 }
         $1 == "counter" && $2 == "serve.connections"    && $3 > 0 { n = 1 }
         END { exit !(s && c && n) }' "$SMOKE_DIR/serve.err" \
        || { echo "verify: serve smoke reported no serve.* counters"; exit 1; }
    cargo run --release --offline -p gopim-obs --example validate_manifest -- \
        "$SMOKE_DIR/serve_manifest.json"
    grep -q '"serve.workers"' "$SMOKE_DIR/serve_manifest.json" \
        || { echo "verify: serve manifest is missing the server config"; exit 1; }
else
    echo "== serve smoke skipped (GOPIM_NO_SERVE=1) =="
fi

if ! flag_on "${GOPIM_NO_LOCKDEP:-}"; then
    echo "== lockdep leg (static lock graph × runtime witness; skip with GOPIM_NO_LOCKDEP=1) =="
    # The two halves of the concurrency analyzer must agree. First the
    # seeded ABBA fixture: the static pass must flag the inversion and
    # exit nonzero.
    if cargo run --release --offline -p gopim --bin gopim -- lint --locks \
        --root crates/lint/fixtures/locks > "$SMOKE_DIR/lockfix.out" 2>&1; then
        echo "verify: the seeded ABBA fixture was not flagged"
        exit 1
    fi
    grep -q "lock-order-inversion" "$SMOKE_DIR/lockfix.out" \
        || { echo "verify: fixture findings missing lock-order-inversion"; exit 1; }
    # The real workspace graph must render (JSON parse/round-trip is
    # covered by the gopim-lint unit suite) and stay cycle-free — a
    # cycle would have failed the lint legs above already.
    cargo run --release --offline -p gopim --bin gopim -- lint --locks --json \
        > "$SMOKE_DIR/lockgraph.json"
    grep -q '"edges"' "$SMOKE_DIR/lockgraph.json" \
        || { echo "verify: lock-graph JSON rendered without an edges array"; exit 1; }
    # A lockdep-instrumented fig04 must keep byte-identical stdout and
    # dump a witness whose order matrix is a subgraph of the static
    # graph.
    GOPIM_LOCKDEP=1 GOPIM_LOCKDEP_DUMP="$SMOKE_DIR/fig04_witness.json" \
        cargo run --release --offline -p gopim --bin gopim -- repro fig04 --quick \
        > "$SMOKE_DIR/lockdep_fig04.out"
    diff -u "$SMOKE_DIR/plain.out" "$SMOKE_DIR/lockdep_fig04.out" \
        || { echo "verify: lockdep changed fig04 stdout"; exit 1; }
    WITNESSES=("$SMOKE_DIR/fig04_witness.json")
    if ! flag_on "${GOPIM_NO_SERVE:-}"; then
        # loadgen exercises the serve/par/cache lock stacks with the
        # metrics registry enabled — the densest witness we can record.
        # (Its stdout carries real ports and wall-clock quantiles, so
        # no byte-identity check here; fig04 above covers that.)
        GOPIM_LOCKDEP=1 GOPIM_LOCKDEP_DUMP="$SMOKE_DIR/loadgen_witness.json" \
            cargo run --release --offline -p gopim --bin gopim -- loadgen --quick \
            > /dev/null
        WITNESSES+=("$SMOKE_DIR/loadgen_witness.json")
    fi
    CHECK_ARGS=()
    for w in "${WITNESSES[@]}"; do CHECK_ARGS+=(--check-witness "$w"); done
    cargo run --release --offline -p gopim --bin gopim -- lint --locks \
        "${CHECK_ARGS[@]}" > "$SMOKE_DIR/lockdep_check.out" \
        || { cat "$SMOKE_DIR/lockdep_check.out"; echo "verify: a runtime witness escaped the static lock graph"; exit 1; }
else
    echo "== lockdep leg skipped (GOPIM_NO_LOCKDEP=1) =="
fi

echo "== seeded fault-campaign smoke (faults --quick) =="
# Two fault rates on a small graph; the JSON-lines output must pass the
# in-repo parser's schema check, and a second run under the same seed
# must replay byte-identically (stdout and JSON records).
GOPIM_FAULT_SEED=7 GOPIM_FAULT_RATES="0,0.2" \
    cargo run --release --offline -p gopim --bin gopim -- repro faults --quick cora \
    --json "$SMOKE_DIR/faults_a.jsonl" > "$SMOKE_DIR/faults_a.out"
GOPIM_FAULT_SEED=7 GOPIM_FAULT_RATES="0,0.2" \
    cargo run --release --offline -p gopim --bin gopim -- repro faults --quick cora \
    --json "$SMOKE_DIR/faults_b.jsonl" > "$SMOKE_DIR/faults_b.out"
# The trailing "appended ... to <path>" line names the per-run JSON
# file, so strip it from the stdout diff; the records themselves are
# compared verbatim just below.
diff -u <(grep -v '^appended ' "$SMOKE_DIR/faults_a.out") \
    <(grep -v '^appended ' "$SMOKE_DIR/faults_b.out") \
    || { echo "verify: fault campaign is not seed-deterministic"; exit 1; }
diff -u "$SMOKE_DIR/faults_a.jsonl" "$SMOKE_DIR/faults_b.jsonl" \
    || { echo "verify: fault campaign JSON records differ across replays"; exit 1; }
cargo run --release --offline -p gopim --bin gopim -- repro faults \
    --validate "$SMOKE_DIR/faults_a.jsonl"

echo "verify: all green"

#!/usr/bin/env bash
# Quick regression benchmark for the shipped DGEFMM default, the
# crossover sweep behind it, and the serial-vs-parallel headline.
#
# Pins the pool's worker count up front (STRASSEN_THREADS override,
# else one worker per detected physical core), measures where forking
# the GEMM's column loop pays (forked vs serial 5-loop GEMM at
# n = 64 … 384, the crossover behind MIN_PARALLEL_FLOPS), measures the
# eq.-(15) parameters (τ, τm, τk, τn) with the §3.4 crossover sweep at
# n = 128 … 2048 against the pool-parallel GEMM the default ships, then
# times that GEMM, the shipped default `StrassenConfig::dgefmm()`, serial
# DGEFMM under the swept parameters, and its parallel twin (task-DAG
# scheduler + pool-parallel leaf GEMM) round-robin at n ∈ {256, 512,
# 1024, 2048, 4096}, measures the serial-vs-parallel headline with pool
# utilization telemetry, and writes BENCH_PR14.json at the repo root
# with the machine profile and both sweeps embedded. Gates: the shipped
# default ≥ 0.98× the same-kernel GEMM at every size, parallel ≥ 2.5× serial at the
# largest size (enforced at ≥ 4 physical cores), pool utilization ≥ 80%
# (enforced at ≥ 2 physical cores with workers ≤ cores; recorded and
# loudly waived elsewhere), and the probe A/B ratios at n = 512 stay
# under their noise-allowed ceilings (noop ≤ 10%, timed ≤ 15%). Scale
# with BENCH_SAMPLES / BENCH_WARMUP_MS / BENCH_MEASURE_MS;
# BENCH_NO_GUARD=1 demotes gate failures to warnings on noisy hosts;
# BENCH_SMOKE=1 runs the fast functional pass (small sizes, a short fork
# sweep, no Strassen sweep, gates recorded but not enforced,
# BENCH_PR14.smoke.json) CI uses.
#
# The run ends with a bench-trajectory diff against the previous
# artifact for the same mode (BENCH_PR14[.smoke].json, else the PR-12
# one): per-shape GFLOP/s ratios, per-bench geometric means, and a
# regression gate at BENCH_DIFF_THRESHOLD percent (default 10;
# BENCH_NO_GUARD=1 waives the gate but still prints the full report).
set -euo pipefail
cd "$(dirname "$0")/.."

export BENCH_SAMPLES="${BENCH_SAMPLES:-8}"
export BENCH_WARMUP_MS="${BENCH_WARMUP_MS:-300}"
export BENCH_MEASURE_MS="${BENCH_MEASURE_MS:-8000}"

# Oracle-linkage audit: the compensated accuracy oracle is a test-only
# reference — it must never appear in the normal dependency graph of the
# hot path (the bench harness, the root crate, or the strassen kernels).
# `-e normal` excludes dev-dependencies, which is exactly the boundary
# the audit enforces.
for pkg in strassen-bench strassen-repro strassen; do
    if cargo tree -p "$pkg" -e normal --prefix none --offline | grep -q "strassen-accuracy"; then
        echo "ERROR: $pkg links the accuracy oracle into its normal (hot-path) graph" >&2
        exit 1
    fi
done
echo "oracle audit: accuracy crate absent from all hot-path dependency graphs"

# Snapshot the previous trajectory point (if any) before the run
# overwrites it, so the differ below compares old vs new.
out="BENCH_PR14.json"
previous="BENCH_PR12.json"
if [ "${BENCH_SMOKE:-0}" != "0" ]; then
    out="BENCH_PR14.smoke.json"
    previous="BENCH_PR12.smoke.json"
fi
[ -f "$out" ] && previous="$out"
baseline=""
if [ -f "$previous" ]; then
    baseline="target/bench_baseline.$$.json"
    mkdir -p target
    cp "$previous" "$baseline"
fi

cargo run --release --offline -p strassen-bench --bin bench_quick

if [ -n "$baseline" ]; then
    diff_args=("$baseline" "$out" --threshold "${BENCH_DIFF_THRESHOLD:-10}")
    [ "${BENCH_NO_GUARD:-0}" != "0" ] && diff_args+=(--waive)
    cargo run --release --offline --example bench_diff -- "${diff_args[@]}"
    rm -f "$baseline"
fi

# Serving-layer latency sweep (PR 10): the deterministic load generator
# against the shape-bucketed batching server — p50/p99/p999 end-to-end
# latency, per-bucket GFLOP/s, and the batched-vs-unbatched comparison
# into BENCH_PR10[.smoke].json. The batching gate (batched aggregate
# throughput ≥ 1.3× unbatched) is enforced inside the example on full
# runs with ≥ 2 physical cores and recorded-and-waived elsewhere;
# BENCH_SMOKE / BENCH_NO_GUARD pass straight through. Ends with its own
# trajectory diff against the previous serving artifact.
serve_out="BENCH_PR10.json"
[ "${BENCH_SMOKE:-0}" != "0" ] && serve_out="BENCH_PR10.smoke.json"
serve_baseline=""
if [ -f "$serve_out" ]; then
    serve_baseline="target/serve_baseline.$$.json"
    cp "$serve_out" "$serve_baseline"
fi

cargo run --release --offline --example serve_bench

# Serving shapes are small (≤ 80), so per-bucket best-case GFLOP/s is
# far noisier than the kernel benches' large fixed sizes — the serve
# trajectory gates at a wider default threshold.
if [ -n "$serve_baseline" ]; then
    diff_args=("$serve_baseline" "$serve_out" --threshold "${SERVE_DIFF_THRESHOLD:-25}")
    [ "${BENCH_NO_GUARD:-0}" != "0" ] && diff_args+=(--waive)
    cargo run --release --offline --example bench_diff -- "${diff_args[@]}"
    rm -f "$serve_baseline"
fi

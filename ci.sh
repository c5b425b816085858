#!/usr/bin/env bash
# CI gate: formatting, lints (warnings are errors), and the full test
# suite. Everything runs offline against the vendored deps.
set -euo pipefail
cd "$(dirname "$0")"

# The bench gates compare against the checked-in BENCH_BASELINE.json and
# must never write it (only an explicit OFPC_BENCH_RECORD=1 run re-pins):
# keep a copy to compare against after the last bench step.
baseline_copy="$(mktemp)"
cp BENCH_BASELINE.json "$baseline_copy"

# `cargo test` does not promote warnings to errors on its own: run it
# under a tee and fail the gate if anything in the build or the test
# output itself warned (deprecations, dead code resurfacing in
# test-only cfgs, tests eprintln-ing "warning:" diagnostics).
run_no_warnings() {
    local log
    log="$(mktemp)"
    "$@" 2>&1 | tee "$log"
    if grep -E '(^|[[:space:]])[Ww]arning(:|\[)' "$log" > /dev/null; then
        echo "==> FAIL: warnings in output of: $*" >&2
        rm -f "$log"
        exit 1
    fi
    rm -f "$log"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q (debug, no warnings tolerated)"
run_no_warnings cargo test --offline --workspace -q

echo "==> cargo test -q --release (tier-1)"
run_no_warnings cargo test --offline --workspace -q --release

echo "==> cargo test --test faults (fault injection & recovery)"
run_no_warnings cargo test --offline --test faults -q

echo "==> telemetry overhead gate (disabled handle within noise of baseline)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench telemetry_overhead

echo "==> core kernel benches (dot product, network sim)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench dot_product
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench network_sim

echo "==> kernel differential suite (scalar vs vectorized backends, tests/kernels.rs)"
run_no_warnings cargo test --offline --test kernels -q

echo "==> vectorized kernel speedup gate (>=5x vs scalar, BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench kernel_speedup

echo "==> parallel scaling & sequential regression gate (BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench par_scaling

echo "==> graph compiler gate (pipelined >=1.5x sequential, deterministic)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench graph_pipeline

echo "==> E16 graph compiler smoke run (expt_graph)"
run_no_warnings cargo run --offline -q -p ofpc-bench --bin expt_graph

echo "==> design-space sweep gate (deterministic, throughput vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench dse_sweep

echo "==> E17 design-space exploration smoke run (expt_dse)"
run_no_warnings cargo run --offline -q -p ofpc-bench --bin expt_dse

echo "==> resilience integration gate (tests/resil.rs)"
run_no_warnings cargo test --offline --test resil -q

echo "==> resilience overhead gate (deterministic, energy gates, throughput vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench resil_overhead

echo "==> E18 proactive-resilience smoke run (expt_resil)"
run_no_warnings cargo run --offline -q -p ofpc-bench --bin expt_resil

echo "==> sharded-controller differential & churn suite (tests/shard.rs)"
run_no_warnings cargo test --offline --test shard -q

echo "==> shard scaling gate (determinism, >=2x @4w, decision latency vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench shard_scaling

echo "==> E20 sharded-controller smoke run (expt_controller_shard, mini) at 1 and 2 workers"
# The report must not depend on the worker count: both runs must write
# exactly the committed mini report.
e20_mini_json=results/e20_controller_shard_mini.json
e20_committed="$(mktemp)"
e20_one_worker="$(mktemp)"
cp "$e20_mini_json" "$e20_committed"
# However this step ends, put the committed report back and drop the
# copies, so a rerun starts from the committed file.
restore_e20_mini() {
    cp "$e20_committed" "$e20_mini_json"
    rm -f "$e20_committed" "$e20_one_worker"
}
trap restore_e20_mini EXIT
run_no_warnings env OFPC_E20_MINI=1 OFPC_WORKERS=1 cargo run --offline -q -p ofpc-bench --bin expt_controller_shard
cp "$e20_mini_json" "$e20_one_worker"
run_no_warnings env OFPC_E20_MINI=1 OFPC_WORKERS=2 cargo run --offline -q -p ofpc-bench --bin expt_controller_shard
if ! cmp "$e20_one_worker" "$e20_mini_json" || ! cmp "$e20_committed" "$e20_mini_json"; then
    echo "==> FAIL: E20 mini report differs between 1 and 2 workers or from the committed file" >&2
    exit 1
fi
restore_e20_mini
trap - EXIT

echo "==> E1-E5, E9, E10 reports match their harnesses (results/ unchanged by a rerun)"
# Each of these harnesses is deterministic and runs in under a second:
# it rewrites results/<report>.json and prints the table kept in
# results/<harness>.txt. Rerun all seven and fail if either file differs
# from the committed one.
pinned_reports=(
    expt_fig1_scenario:e1_fig1_scenario
    expt_fig2_primitives:e2_primitives
    expt_fig34_transponder:e3_transponder
    expt_table1_usecases:e4_table1_usecases
    expt_energy_speed:e5_energy_speed
    expt_incremental_deployment:e9_incremental_deployment
    expt_noise_ablation:e10_noise_ablation
)
pinned_dir="$(mktemp -d)"
for pair in "${pinned_reports[@]}"; do
    cp "results/${pair#*:}.json" "$pinned_dir/"
done
# However this step ends, put the committed reports back and drop the
# copies, so a rerun starts from the committed files.
restore_pinned_reports() {
    for pair in "${pinned_reports[@]}"; do
        cp "$pinned_dir/${pair#*:}.json" results/
    done
    rm -rf "$pinned_dir"
}
trap restore_pinned_reports EXIT
run_no_warnings cargo build --offline -q -p ofpc-bench --bins
for pair in "${pinned_reports[@]}"; do
    bin="${pair%%:*}"
    report="${pair#*:}"
    cargo run --offline -q -p ofpc-bench --bin "$bin" > "$pinned_dir/$bin.txt"
    if ! cmp "$pinned_dir/$report.json" "results/$report.json" \
        || ! cmp "results/$bin.txt" "$pinned_dir/$bin.txt"; then
        echo "==> FAIL: $bin output differs from the committed results/$report.json or results/$bin.txt" >&2
        exit 1
    fi
done
restore_pinned_reports
trap - EXIT

echo "==> ingest property suite (tests/ingest.rs)"
run_no_warnings cargo test --offline --test ingest -q

echo "==> serve scale gate (determinism, >=2x @4w, throughput/core vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench serve_scale

echo "==> BENCH_BASELINE.json unchanged by the bench steps"
if ! cmp BENCH_BASELINE.json "$baseline_copy"; then
    echo "==> FAIL: a bench step wrote the checked-in BENCH_BASELINE.json" >&2
    exit 1
fi
rm -f "$baseline_copy"

echo "==> E21 ingest front-end smoke run (expt_ingest, mini)"
run_no_warnings env OFPC_E21_MINI=1 cargo run --offline -q -p ofpc-bench --bin expt_ingest

echo "==> repo benchmark builds against the locked workspace (perfbench, serve_sweep smoke)"
# perfbench is its own Cargo package with a checked-in lock file; build
# it the way the benchmark runs it so an API or lock break shows here.
# Its build output goes to the gitignored perfbench/target/.
cargo build --release --offline --locked -q --manifest-path perfbench/Cargo.toml
perfbench_last="$(cargo run --release --offline --locked -q --manifest-path perfbench/Cargo.toml -- \
    --workload serve_sweep --seconds 1 --trace 0 | tail -n 1)"
echo "$perfbench_last"
if ! grep -q '"correct": true' <<< "$perfbench_last" || ! grep -q '"failed": 0[,}]' <<< "$perfbench_last"; then
    echo "==> FAIL: perfbench serve_sweep did not report correct: true, failed: 0" >&2
    exit 1
fi

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

echo "CI green."

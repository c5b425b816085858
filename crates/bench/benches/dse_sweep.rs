//! Bench gate: design-space-sweep determinism and throughput.
//!
//! Two checks, run as a `harness = false` binary so it can fail CI with
//! a nonzero exit:
//!
//! 1. **Determinism** — the mini-E17 sweep at 4 workers must be
//!    byte-identical to the 1-worker bytes (the same contract the
//!    serving sweeps pin in `par_scaling`).
//! 2. **Throughput regression** — the full sequential E17 sweep (54
//!    design points, closed-form pricing) must stay within
//!    [`MAX_REGRESSION`] (+50%) of the `dse_sweep_ms` figure pinned in
//!    `BENCH_BASELINE.json`, through [`ofpc_bench::gate`]: compared only
//!    against a figure stamped with this machine's core count
//!    (`dse_sweep_cores`); a mismatch or missing key prints `SKIPPED` and
//!    writes nothing; only `OFPC_BENCH_RECORD=1` re-pins.

use ofpc_bench::gate::{best_time, Better, Gate};
use ofpc_bench::golden;
use ofpc_dse::{run_sweep, SweepSpec};
use ofpc_par::WorkerPool;
use std::hint::black_box;

/// Gate: the sequential sweep may regress at most this much. Wider
/// than `par_scaling`'s 1.10 because one trial here is only ~10 ms —
/// short enough that sustained scheduler interference during a full
/// `ci.sh` run can inflate even a best-of minimum past 10%.
const MAX_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (minimum) is the reported figure. Enough
/// trials to spread the measurement window past transient CPU
/// contention from earlier CI steps.
const TIMING_REPS: usize = 15;
/// Full-sweep invocations per trial, so one trial is comfortably above
/// timer resolution.
const SWEEPS_PER_TRIAL: usize = 10;
const GATE: Gate<'static> = Gate {
    bench: "dse_sweep",
    key: "dse_sweep_ms",
    cores_key: "dse_sweep_cores",
    unit: "ms",
    better: Better::Lower,
    bound: MAX_REGRESSION,
};

fn sweep_kernel() {
    let pool = WorkerPool::sequential();
    let spec = SweepSpec::e17();
    for _ in 0..SWEEPS_PER_TRIAL {
        black_box(run_sweep(&pool, black_box(&spec)));
    }
}

fn check_determinism() {
    let reference = golden::e17_mini(&WorkerPool::new(1));
    let wide = golden::e17_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "dse_sweep: 4-worker mini-E17 sweep diverged from the 1-worker bytes"
    );
    println!(
        "dse_sweep: determinism OK (1-worker and 4-worker sweeps byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_throughput_regression() {
    // Warm-up pass.
    sweep_kernel();
    let measured_ms = best_time(TIMING_REPS, sweep_kernel) * 1e3;
    GATE.run(measured_ms, &[]);
}

fn main() {
    check_determinism();
    check_throughput_regression();
    println!("dse_sweep: no gate failed");
}

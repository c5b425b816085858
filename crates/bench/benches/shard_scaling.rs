//! Bench gate: sharded-controller determinism, parallel-shard scaling,
//! per-decision latency regression, and the full E20 latency bounds.
//!
//! Four checks, run as a `harness = false` binary so it can fail CI
//! with a nonzero exit:
//!
//! 1. **Determinism** — the mini-E20 report at 4 workers must be
//!    byte-identical to the 1-worker bytes (always checked; threads
//!    exist even when cores do not).
//! 2. **Parallel-shard scaling** — on ≥ 4 cores, a from-scratch
//!    re-solve of a 12-region WAN loaded with local demands must run at
//!    least [`MIN_SPEEDUP`]× faster on 4 workers than on 1 (best of
//!    [`TIMING_REPS`] trials each); all twelve shard solves are
//!    independent, so this measures the ofpc-par scatter over real
//!    controller work. Skipped with a notice on narrower machines.
//! 3. **Per-decision latency regression** — the mean sequential
//!    `apply_batch` latency over a churn window must stay within
//!    [`MAX_REGRESSION`] of the `shard_decision_us` figure pinned in
//!    `BENCH_BASELINE.json`, through [`ofpc_bench::gate`]: compared only
//!    against a figure stamped with this machine's core count
//!    (`shard_cores`); a mismatch or missing key prints `SKIPPED` and
//!    writes nothing; only `OFPC_BENCH_RECORD=1` re-pins.
//! 4. **E20 decision-latency bounds** — the full E20 run
//!    ([`E20Spec::full`]) on `WorkerPool::from_env()`, repeated
//!    [`E20_RUNS`] times: the median p99 must stay below
//!    [`P99_BOUND_US`] and the median max below [`MAX_BOUND_US`]. These
//!    bounds used to be asserted inside the E20 harness on one run,
//!    where one preempted decision could fail a deterministic job; a
//!    median over repeated runs needs a majority of slow runs to fire.

use ofpc_bench::gate::{best_time, cores, median, Better, Gate};
use ofpc_bench::shard::{e20_mini, latency_us, run_e20, E20Spec};
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::topo::{multi_region, MultiRegionSpec};
use ofpc_engine::Primitive;
use ofpc_net::NodeId;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_shard::{RegionMap, ShardEvent, ShardedController};
use std::hint::black_box;

/// Gate: 4 workers must beat 1 worker by at least this factor.
const MIN_SPEEDUP: f64 = 2.0;
/// Gate: per-decision latency may regress at most this much (+50%; one
/// decision is tens of µs, well inside scheduler-noise territory).
const MAX_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (minimum) is the reported figure.
const TIMING_REPS: usize = 15;
/// Gate: median p99 decision latency of the full E20 run, µs.
const P99_BOUND_US: f64 = 5_000.0;
/// Gate: median max decision latency of the full E20 run, µs.
const MAX_BOUND_US: f64 = 250_000.0;
/// Full E20 runs behind the latency bounds.
const E20_RUNS: usize = 3;
const GATE: Gate<'static> = Gate {
    bench: "shard_scaling",
    key: "shard_decision_us",
    cores_key: "shard_cores",
    unit: "µs",
    better: Better::Lower,
    bound: MAX_REGRESSION,
};

/// A demand local to `region` of the 12×10 scaling WAN.
fn local_demand(id: u32, region: u32, sites_per_region: u32, rng: &mut SimRng) -> Demand {
    let base = region * sites_per_region;
    let src = NodeId(base + rng.below(sites_per_region as usize) as u32);
    let mut dst = src;
    while dst == src {
        dst = NodeId(base + rng.below(sites_per_region as usize) as u32);
    }
    Demand::new(id, src, dst, TaskDag::single(Primitive::VectorDotProduct))
}

/// A 12-region, 120-site controller loaded with 20 local demands per
/// region — the all-shards-dirty `full_resolve` workload.
fn loaded_controller(pool: &WorkerPool) -> ShardedController {
    const REGIONS: u32 = 12;
    const SITES: u32 = 10;
    let mut rng = SimRng::seed_from_u64(2040);
    let wan = multi_region(
        &MultiRegionSpec::new(REGIONS as usize, SITES as usize),
        &mut rng,
    );
    let n = wan.topo.node_count();
    let capacity: Vec<usize> = (0..n).map(|i| if i % 3 == 0 { 4 } else { 0 }).collect();
    let map = RegionMap::from_assignment(wan.region_of.clone());
    let mut ctl = ShardedController::new(wan.topo, map, capacity, 8).with_pool(pool.clone());
    let mut events = Vec::new();
    for id in 0..20 * REGIONS {
        events.push(ShardEvent::Arrive(local_demand(
            id,
            id % REGIONS,
            SITES,
            &mut rng,
        )));
    }
    ctl.apply_batch(events);
    ctl
}

fn check_determinism() {
    let reference = e20_mini(&WorkerPool::new(1));
    let wide = e20_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "shard_scaling: 4-worker mini-E20 report diverged from the 1-worker bytes"
    );
    println!(
        "shard_scaling: determinism OK (1-worker and 4-worker reports byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_parallel_speedup() {
    if cores() < 4 {
        println!(
            "shard_scaling: speedup check skipped ({} core(s) < 4); \
             determinism and latency gates still apply",
            cores()
        );
        return;
    }
    let time_resolve = |workers: usize| {
        let mut ctl = loaded_controller(&WorkerPool::new(workers));
        ctl.full_resolve(); // warm-up
        best_time(TIMING_REPS, || {
            ctl.full_resolve();
            black_box(&ctl);
        })
    };
    let t1 = time_resolve(1);
    let t4 = time_resolve(4);
    let speedup = t1 / t4;
    println!(
        "shard_scaling: 12-shard full re-solve {:.2} ms @1w, {:.2} ms @4w ({speedup:.2}×, gate {MIN_SPEEDUP:.1}×)",
        t1 * 1e3,
        t4 * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "shard_scaling: parallel shard solve speedup {speedup:.2}× below the {MIN_SPEEDUP:.1}× gate"
    );
}

/// Mean sequential per-decision latency (µs) over a 200-event churn
/// window on the loaded 12-region controller.
fn decision_latency_us() -> f64 {
    let mut ctl = loaded_controller(&WorkerPool::sequential());
    let mut rng = SimRng::seed_from_u64(2041);
    let mut id = 20 * 12;
    let secs = best_time(TIMING_REPS, || {
        for i in 0..200u32 {
            let region = i % 12;
            ctl.apply_batch(vec![
                ShardEvent::Arrive(local_demand(id, region, 10, &mut rng)),
                ShardEvent::Depart(id - 20 * 12),
            ]);
            id += 1;
        }
    });
    secs * 1e6 / 200.0
}

fn check_latency_regression() {
    GATE.run(decision_latency_us(), &[]);
}

fn check_e20_latency_bounds() {
    let pool = WorkerPool::from_env();
    let (mut p99s, mut maxes): (Vec<f64>, Vec<f64>) = (0..E20_RUNS)
        .map(|_| {
            let (_, mut decision_ns) = run_e20(&E20Spec::full(), &pool);
            let (_, p99, max) = latency_us(&mut decision_ns);
            (p99, max)
        })
        .unzip();
    let (p99, max) = (median(&mut p99s), median(&mut maxes));
    println!(
        "shard_scaling: full E20 @{}w, median of {E20_RUNS} runs: decision p99 {p99:.1} µs \
         (gate < {P99_BOUND_US:.0}), max {max:.1} µs (gate < {MAX_BOUND_US:.0})",
        pool.workers()
    );
    assert!(
        p99 < P99_BOUND_US,
        "shard_scaling: median E20 p99 decision latency {p99:.0} µs >= {P99_BOUND_US:.0} µs"
    );
    assert!(
        max < MAX_BOUND_US,
        "shard_scaling: median E20 max decision latency {max:.0} µs >= {MAX_BOUND_US:.0} µs"
    );
}

fn main() {
    check_determinism();
    check_parallel_speedup();
    check_latency_regression();
    check_e20_latency_bounds();
    println!("shard_scaling: no gate failed");
}

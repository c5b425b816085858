//! E20 — the sharded incremental controller at WAN scale.
//!
//! The paper's §3 controller "dynamically reconfigures" transponders as
//! demands and faults arrive; E6 measured the monolithic re-solve wall.
//! E20 is the scaling answer: a 120-site, 12-region WAN (30× fig1)
//! absorbing 115k arrivals, trailing FIFO departures, and an 8-burst
//! correlated fault storm — re-planning only the dirty shards per event
//! and reconciling cross-region demands from residual capacity.
//!
//! Claims checked here, beyond the differential suite in
//! `tests/shard.rs`:
//!
//! * ≥10⁵ admitted requests over the run on a ≥100-site topology;
//! * bounded per-decision latency (p99 / max asserted in release);
//! * periodic clone + from-scratch re-solves agree with the
//!   incremental state exactly (E20Spec::check_every);
//! * the report is byte-deterministic — wall-clock stays out of it.
//!
//! `OFPC_E20_MINI=1` runs the golden-fixture miniature instead (the ci
//! smoke path; debug-build friendly) and writes its own
//! `e20_controller_shard_mini.json`, leaving the full run's report alone.

use ofpc_bench::shard::{latency_us, run_e20, E20Spec};
use ofpc_bench::table::{dump_json, Table};
use ofpc_par::WorkerPool;

fn main() {
    let mini = std::env::var("OFPC_E20_MINI").is_ok_and(|v| v == "1");
    let spec = if mini {
        E20Spec::mini()
    } else {
        E20Spec::full()
    };
    let pool = WorkerPool::from_env();
    println!(
        "E20: sharded incremental controller — {} sites / {} regions, {} arrivals, {} workers\n",
        spec.node_count(),
        spec.regions,
        spec.arrivals,
        pool.workers()
    );

    let (report, mut decision_ns) = run_e20(&spec, &pool);
    let (p50, p99, max) = latency_us(&mut decision_ns);

    let mut t = Table::new("E20 run summary", &["metric", "value"]);
    for (k, v) in [
        ("sites", report.nodes.to_string()),
        ("slots installed", report.slots_total.to_string()),
        ("arrivals", report.arrivals.to_string()),
        ("admitted", report.admitted.to_string()),
        ("rejected at arrival", report.rejected.to_string()),
        ("displaced by faults", report.displaced.to_string()),
        ("revived", report.revived.to_string()),
        ("fault events", report.fault_events.to_string()),
        ("shard re-solves", report.shard_resolves.to_string()),
        ("boundary reruns", report.boundary_reruns.to_string()),
        (
            "differential checks",
            report.differential_checks.to_string(),
        ),
        ("decision p50 µs", format!("{p50:.1}")),
        ("decision p99 µs", format!("{p99:.1}")),
        ("decision max µs", format!("{max:.1}")),
    ] {
        t.row(&[k.to_string(), v]);
    }
    t.print();

    let decisions = report.arrivals + report.fault_batches;
    println!(
        "\n{} decisions; boundary sweep ran on {:.1}% of them (skipped when provably unchanged)",
        decisions,
        100.0 * report.boundary_reruns as f64 / decisions as f64
    );

    assert!(report.differential_checks > 0, "checkpoints must run");
    if !mini {
        // The headline E20 acceptance numbers.
        assert!(report.nodes >= 100, "E20 must run on a >=100-site topology");
        assert!(
            report.admitted >= 100_000,
            "E20 must admit >=1e5 requests, got {}",
            report.admitted
        );
        // Latency bounds only mean something in release builds.
        if !cfg!(debug_assertions) {
            assert!(p99 < 5_000.0, "p99 decision latency {p99:.0}µs >= 5ms");
            assert!(max < 250_000.0, "max decision latency {max:.0}µs >= 250ms");
        }
    }
    dump_json(
        if mini {
            "e20_controller_shard_mini"
        } else {
            "e20_controller_shard"
        },
        &report,
    );
}

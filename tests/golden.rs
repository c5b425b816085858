//! Golden-replay regression suite: the mini experiment scenarios must
//! regenerate byte-identical to the fixtures pinned under
//! `results/golden/`. Any behavioral drift in the serving, fault, or
//! telemetry stacks fails here with a readable first-divergence diff;
//! intentional changes are re-pinned with
//! `cargo run -p ofpc-bench --bin golden_regen` and reviewed like any
//! other diff.

use ofpc_bench::golden;
use ofpc_par::WorkerPool;

fn check(name: &str) {
    let (_, generate) = golden::cases()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown golden case {name:?}"));
    let path = format!("results/golden/{name}.json");
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read fixture {path}: {e}; run `cargo run -p ofpc-bench --bin golden_regen`")
    });
    let current = generate(&WorkerPool::sequential());
    if let Some(diff) = golden::first_divergence(name, &fixture, &current) {
        panic!("{diff}");
    }
}

#[test]
fn e12_serving_knee_matches_golden() {
    check("e12_mini");
}

#[test]
fn e13_fault_replay_matches_golden() {
    check("e13_mini");
}

#[test]
fn e14_telemetry_snapshot_matches_golden() {
    check("e14_mini");
}

#[test]
fn e17_design_space_frontier_matches_golden() {
    check("e17_mini");
}

#[test]
fn e18_resilience_matches_golden() {
    check("e18_mini");
}

#[test]
fn e20_sharded_controller_matches_golden() {
    check("e20_mini");
}

#[test]
fn e21_ingest_front_end_matches_golden() {
    check("e21_mini");
}

#[test]
fn kernels_differential_matches_golden() {
    check("kernels_mini");
}

#[test]
fn kernels_replay_is_byte_identical_across_worker_counts() {
    // Both halves of the kernel fixture — scalar and vectorized — fan
    // the batch out over the pool; the document must not depend on how
    // many workers carried it.
    let narrow = ofpc_bench::golden::kernels_mini(&WorkerPool::new(1));
    let two = ofpc_bench::golden::kernels_mini(&WorkerPool::new(2));
    let wide = ofpc_bench::golden::kernels_mini(&WorkerPool::new(8));
    assert_eq!(narrow, two, "1-worker vs 2-worker kernel bytes diverged");
    assert_eq!(narrow, wide, "1-worker vs 8-worker kernel bytes diverged");
}

#[test]
fn vectorized_verify_replays_e12_byte_identically_across_worker_counts() {
    // The vectorized verification engine is deterministic per seed too:
    // the whole mini-E12 sweep must replay byte-identically at any
    // worker count with verification on the fused kernels.
    use ofpc_engine::dot::KernelBackend;
    let narrow = golden::e12_mini_with_backend(&WorkerPool::new(1), KernelBackend::Vectorized);
    let two = golden::e12_mini_with_backend(&WorkerPool::new(2), KernelBackend::Vectorized);
    let wide = golden::e12_mini_with_backend(&WorkerPool::new(8), KernelBackend::Vectorized);
    assert_eq!(
        narrow, two,
        "1-worker vs 2-worker vectorized-verify E12 diverged"
    );
    assert_eq!(
        narrow, wide,
        "1-worker vs 8-worker vectorized-verify E12 diverged"
    );
}

#[test]
fn scalar_verify_differs_from_fixture_only_in_verify_stats() {
    // Swapping the verification backend must not perturb the simulation
    // itself: against the pinned vectorized fixture, the only lines
    // allowed to change under a scalar-verify replay are the
    // verify-error statistics. (E17/E18 carry no verify unit, so the
    // claim is scoped to the serving minis.)
    use ofpc_engine::dot::KernelBackend;
    let fixture = std::fs::read_to_string("results/golden/e12_mini.json").expect("fixture");
    let current = golden::e12_mini_with_backend(&WorkerPool::sequential(), KernelBackend::Scalar);
    let g: Vec<&str> = fixture.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    assert_eq!(g.len(), c.len(), "line counts diverged");
    let mut changed = 0;
    for (i, (a, b)) in g.iter().zip(&c).enumerate() {
        if a != b {
            changed += 1;
            assert!(
                a.contains("verify_mean_abs_error"),
                "line {} changed outside the verify stats:\n  golden : {a}\n  current: {b}",
                i + 1
            );
        }
    }
    assert!(
        changed > 0,
        "scalar verify produced identical bytes — backend not applied"
    );
}

#[test]
fn e21_replay_is_byte_identical_across_worker_counts() {
    // Each epoch fans the shards out over the pool and the rebalance
    // barrier runs sequentially in between; the report must not depend
    // on how many workers carried the shards.
    let narrow = ofpc_bench::ingest::e21_mini(&WorkerPool::new(1));
    let two = ofpc_bench::ingest::e21_mini(&WorkerPool::new(2));
    let wide = ofpc_bench::ingest::e21_mini(&WorkerPool::new(8));
    assert_eq!(narrow, two, "1-worker vs 2-worker E21 bytes diverged");
    assert_eq!(narrow, wide, "1-worker vs 8-worker E21 bytes diverged");
}

#[test]
fn e18_replay_is_byte_identical_across_worker_counts() {
    // The three protection-mode runs fan out over the pool; the
    // comparison document must not depend on how many workers carried
    // them.
    let narrow = ofpc_bench::resil::e18_mini(&WorkerPool::new(1));
    let two = ofpc_bench::resil::e18_mini(&WorkerPool::new(2));
    let wide = ofpc_bench::resil::e18_mini(&WorkerPool::new(8));
    assert_eq!(narrow, two, "1-worker vs 2-worker E18 bytes diverged");
    assert_eq!(narrow, wide, "1-worker vs 8-worker E18 bytes diverged");
}

#[test]
fn fixtures_carry_the_report_schema_version() {
    for (name, _) in golden::cases() {
        let path = format!("results/golden/{name}.json");
        let fixture = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
        let expected = format!(
            "{{\n  \"schema_version\": {},\n  \"data\":",
            ofpc_bench::table::SCHEMA_VERSION
        );
        assert!(
            fixture.starts_with(&expected),
            "fixture {name} missing the versioned envelope; \
             run `cargo run -p ofpc-bench --bin golden_regen`"
        );
    }
}

#[test]
fn fixtures_exist_for_every_case() {
    for (name, _) in golden::cases() {
        let path = format!("results/golden/{name}.json");
        assert!(
            std::path::Path::new(&path).exists(),
            "missing fixture {path}; run `cargo run -p ofpc-bench --bin golden_regen`"
        );
    }
}

#[test]
fn committed_results_match_the_scale_experiments_md_claims() {
    // EXPERIMENTS.md quotes E20 and E21 at full scale; the mini smoke
    // runs write their own `_mini` files and must never land here.
    let field = |name: &str, key: &str| -> u64 {
        let path = format!("results/{name}.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc: serde_json::Value = serde_json::from_str(&text).expect("results JSON");
        doc.get("data")
            .and_then(|d| d.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("{path} has no data.{key}"))
    };
    let nodes = field("e20_controller_shard", "nodes");
    assert!(nodes >= 100, "E20 report is from a {nodes}-node run");
    assert_eq!(field("e20_controller_shard", "arrivals"), 115_000);
    let tenants = field("e21_ingest", "tenants");
    assert!(tenants >= 1_000_000, "E21 report has {tenants} tenants");
}

//! The four workloads. Each is built from a seed, set up, then run;
//! set-up and run are timed apart, and every call into a layer is
//! bracketed by a [`Tracer`] span (a branch when tracing is off).
//!
//! The workloads drive the library entry points the E20, E21 and E12
//! harnesses use, never the `expt_*` binaries, so no harness assert and
//! no `results/` write runs inside a benchmark. The controller loop is
//! restated here (not called through `ofpc_bench::shard::run_e20`) so
//! that set-up and each `apply_batch` can be timed apart; its report is
//! checked against `run_e20` by digest, so the restatement cannot drift.

use std::collections::VecDeque;
use std::time::Instant;

use ofpc_bench::shard::{E20Report, E20Spec};
use ofpc_controller::build_plan_from_placements;
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::topo::{multi_region, MultiRegionSpec};
use ofpc_core::OnFiberNetwork;
use ofpc_engine::dot::KernelBackend;
use ofpc_engine::Primitive;
use ofpc_faults::storm::generate_storm;
use ofpc_ingest::{IngestConfig, IngestFrontEnd, IngestReport};
use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_serve::{
    ArrivalSpec, BatchClass, BatchPolicy, ServeConfig, ServeReport, ServeRuntime, ServiceModel,
    SweepScenario, TenantSpec,
};
use ofpc_shard::{RegionMap, ShardEvent, ShardedController};
use ofpc_transponder::compute::ComputeTransponderConfig;

use crate::stats::digest;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ControllerChurn,
    IngestOverload,
    ServeSweep,
    VerifiedServing,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ControllerChurn,
        Workload::IngestOverload,
        Workload::ServeSweep,
        Workload::VerifiedServing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ControllerChurn => "controller_churn",
            Workload::IngestOverload => "ingest_overload",
            Workload::ServeSweep => "serve_sweep",
            Workload::VerifiedServing => "verified_serving",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The harness seed: E20Spec (20), IngestConfig (21), E12 (12).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ControllerChurn => 20,
            Workload::IngestOverload => 21,
            Workload::ServeSweep | Workload::VerifiedServing => 12,
        }
    }

    /// Report digest of the default seed, taken from a 1-worker run of
    /// the canonical entry point (`perfbench --pin` prints these).
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::ControllerChurn => "0e73f0b63adfcfaf-419",
            Workload::IngestOverload => "ba66220ac0659ae6-2669",
            Workload::ServeSweep => "94f51133ba9725cc-61935",
            Workload::VerifiedServing => "cedcded1ea90ae1c-12629",
        }
    }

    /// Digest the canonical 1-worker entry point produces for `seed`.
    pub fn reference_digest(self, seed: u64) -> String {
        let seq = WorkerPool::sequential();
        let json = match self {
            Workload::ControllerChurn => {
                let (report, _) = ofpc_bench::shard::run_e20(&churn_spec(seed), &seq);
                to_json(&report)
            }
            Workload::IngestOverload => {
                to_json(&ofpc_bench::ingest::run_e21(ingest_config(seed), &seq))
            }
            Workload::ServeSweep => to_json(&ofpc_serve::run_sweep(&seq, sweep_scenarios(seed))),
            Workload::VerifiedServing => {
                let reports: Vec<ServeReport> = verified_scenarios(seed)
                    .iter()
                    .map(SweepScenario::run)
                    .collect();
                to_json(&reports)
            }
        };
        digest(json.as_bytes())
    }
}

fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("reports serialize")
}

/// One `apply_batch` call: host time and how the controller handled it.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    pub ns: u64,
    pub fault_batch: bool,
    pub boundary_rerun: bool,
}

/// What a pass leaves for the per-layer metrics.
pub enum Detail {
    Churn {
        report: E20Report,
        decisions: Vec<Decision>,
    },
    Ingest {
        report: IngestReport,
    },
    Serve {
        reports: Vec<ServeReport>,
        batching: Vec<bool>,
        /// Host seconds of each scenario's `ServeRuntime::run`.
        run_s: Vec<f64>,
    },
}

/// One set-up plus run of a workload.
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    /// Modelled operations: decisions, offered frames, or arrivals.
    pub ops: u64,
    pub digest: String,
    /// Host µs per decision: one sample per `apply_batch` on
    /// `controller_churn`. Elsewhere the decisions happen inside one
    /// library call, so the pass gives one sample: run µs / operations.
    pub decision_us: Vec<f64>,
}

enum Prepared {
    Churn(Box<ChurnState>),
    Ingest(Box<IngestFrontEnd>),
    Serve(Vec<ServeRuntime>, Vec<bool>),
}

/// Set up `workload` (timed by the caller) without running it.
fn setup(workload: Workload, seed: u64, pool: &WorkerPool, tr: &mut Tracer) -> Prepared {
    match workload {
        Workload::ControllerChurn => {
            Prepared::Churn(Box::new(churn_setup(&churn_spec(seed), pool, tr)))
        }
        Workload::IngestOverload => {
            tr.begin("ingest.new");
            let fe = IngestFrontEnd::new(ingest_config(seed));
            tr.end();
            Prepared::Ingest(Box::new(fe))
        }
        Workload::ServeSweep | Workload::VerifiedServing => {
            let scenarios = if workload == Workload::ServeSweep {
                sweep_scenarios(seed)
            } else {
                verified_scenarios(seed)
            };
            let batching = scenarios
                .iter()
                .map(|s| s.config.batch.max_batch > 1)
                .collect();
            let runtimes = scenarios
                .iter()
                .map(|s| {
                    tr.begin("serve.build");
                    let rt = build_runtime(s);
                    tr.end();
                    rt
                })
                .collect();
            Prepared::Serve(runtimes, batching)
        }
    }
}

/// Time only the set-up (extra samples for `setup_s`).
pub fn setup_only(workload: Workload, seed: u64, pool: &WorkerPool) -> f64 {
    let t = Instant::now();
    let prepared = setup(workload, seed, pool, &mut Tracer::new(false));
    let s = t.elapsed().as_secs_f64();
    drop(prepared);
    s
}

/// Set up and run `workload` once on `pool`.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    pool: &WorkerPool,
    tr: &mut Tracer,
) -> (Pass, Detail) {
    tr.begin("setup");
    let t = Instant::now();
    let prepared = setup(workload, seed, pool, tr);
    let setup_s = t.elapsed().as_secs_f64();
    tr.end();

    tr.begin("run");
    let t = Instant::now();
    let detail = match prepared {
        Prepared::Churn(state) => {
            let (report, decisions) = churn_run(*state, tr);
            Detail::Churn { report, decisions }
        }
        Prepared::Ingest(fe) => {
            tr.begin("ingest.run");
            let report = fe.run(pool);
            tr.end();
            Detail::Ingest { report }
        }
        Prepared::Serve(runtimes, batching) => {
            let (reports, run_s) = serve_run(workload, runtimes, pool, tr);
            Detail::Serve {
                reports,
                batching,
                run_s,
            }
        }
    };
    let run_s = t.elapsed().as_secs_f64();
    tr.end();

    let (json, ops) = match &detail {
        Detail::Churn { report, decisions } => (to_json(report), decisions.len() as u64),
        Detail::Ingest { report } => (
            to_json(report),
            report.frames.parsed + report.frames.rejected_total,
        ),
        Detail::Serve { reports, .. } => {
            (to_json(reports), reports.iter().map(|r| r.arrivals).sum())
        }
    };
    let decision_us = match &detail {
        Detail::Churn { decisions, .. } => decisions.iter().map(|d| d.ns as f64 / 1e3).collect(),
        _ => vec![run_s * 1e6 / ops as f64],
    };
    let pass = Pass {
        setup_s,
        run_s,
        ops,
        digest: digest(json.as_bytes()),
        decision_us,
    };
    (pass, detail)
}

// --- controller_churn ------------------------------------------------

fn churn_spec(seed: u64) -> E20Spec {
    E20Spec {
        seed,
        ..E20Spec::full()
    }
}

/// One virtual tick per arrival (the storm's time axis), as in E20.
const TICK_PS: u64 = 1_000;

struct ChurnState {
    spec: E20Spec,
    ctl: ShardedController,
    region_of: Vec<u32>,
    faults: Vec<(u64, ShardEvent)>,
    drng: SimRng,
    slots_total: usize,
}

fn churn_setup(spec: &E20Spec, pool: &WorkerPool, tr: &mut Tracer) -> ChurnState {
    let mut rng = SimRng::seed_from_u64(spec.seed);
    tr.begin("core.multi_region");
    let wan = multi_region(
        &MultiRegionSpec::new(spec.regions, spec.sites_per_region),
        &mut rng.derive("topo"),
    );
    tr.end();
    let n = wan.topo.node_count();
    let capacity: Vec<usize> = (0..n)
        .map(|i| if i % 3 == 0 { spec.slots_per_site } else { 0 })
        .collect();
    let sites: Vec<NodeId> = (0..n)
        .filter(|&i| capacity[i] > 0)
        .map(|i| NodeId(i as u32))
        .collect();
    let links: Vec<LinkId> = (0..wan.topo.link_count())
        .map(|i| LinkId(i as u32))
        .collect();

    let mut faults: Vec<(u64, ShardEvent)> = Vec::new();
    if let Some(storm) = &spec.storm {
        tr.begin("faults.generate_storm");
        let horizon = (spec.arrivals as u64 + 1) * TICK_PS;
        let plan = generate_storm(&links, &sites, horizon, storm, &mut rng.derive("storm"));
        tr.end();
        for (t, l, up) in plan.link_events() {
            let ev = if up {
                ShardEvent::RepairLink(l)
            } else {
                ShardEvent::CutLink(l)
            };
            faults.push((t, ev));
        }
        for (t, node, up) in plan.engine_events() {
            let ev = if up {
                ShardEvent::RepairSite(node)
            } else {
                ShardEvent::FailSite(node)
            };
            faults.push((t, ev));
        }
        faults.sort_by_key(|&(t, _)| t);
    }

    let slots_total = capacity.iter().sum();
    let region_map = RegionMap::from_assignment(wan.region_of.clone());
    tr.begin("shard.new");
    let ctl = ShardedController::new(wan.topo, region_map, capacity, spec.max_options)
        .with_pool(pool.clone());
    tr.end();
    ChurnState {
        spec: spec.clone(),
        ctl,
        region_of: wan.region_of,
        faults,
        drng: rng.derive("demands"),
        slots_total,
    }
}

/// The E20 event loop (`ofpc_bench::shard::run_e20`), one span per call
/// into the controller.
fn churn_run(state: ChurnState, tr: &mut Tracer) -> (E20Report, Vec<Decision>) {
    let ChurnState {
        spec,
        mut ctl,
        region_of,
        faults,
        mut drng,
        slots_total,
    } = state;
    let n = region_of.len();
    let prims = [
        Primitive::VectorDotProduct,
        Primitive::PatternMatching,
        Primitive::NonlinearFunction,
    ];
    let mut fifo: VecDeque<u32> = VecDeque::new();
    let mut next_fault = 0usize;
    let mut decisions: Vec<Decision> = Vec::with_capacity(spec.arrivals + faults.len());
    let mut report = E20Report {
        nodes: n,
        regions: spec.regions,
        slots_total,
        arrivals: spec.arrivals,
        admitted: 0,
        rejected: 0,
        displaced: 0,
        revived: 0,
        replanned: 0,
        fault_events: 0,
        fault_batches: 0,
        shard_resolves: 0,
        boundary_reruns: 0,
        boundary_demands_seen: 0,
        final_live: 0,
        final_satisfied: 0,
        final_objective: 0.0,
        te_installs: 0,
        te_overrides: 0,
        te_unsatisfied: 0,
        differential_checks: 0,
    };
    let mut apply = |ctl: &mut ShardedController,
                     report: &mut E20Report,
                     batch: Vec<ShardEvent>,
                     fault_batch: bool,
                     tr: &mut Tracer| {
        tr.begin("shard.apply_batch");
        let start = Instant::now();
        let out = ctl.apply_batch(batch);
        let ns = start.elapsed().as_nanos() as u64;
        tr.end();
        decisions.push(Decision {
            ns,
            fault_batch,
            boundary_rerun: out.boundary_rerun,
        });
        report.admitted += out.admitted.len();
        report.rejected += out.rejected.len();
        report.displaced += out.displaced.len();
        report.revived += out.revived.len();
        report.replanned += out.replanned.len();
        report.shard_resolves += out.resolved_shards.len();
        report.boundary_reruns += usize::from(out.boundary_rerun);
    };

    for i in 0..spec.arrivals {
        let now = (i as u64 + 1) * TICK_PS;

        let mut burst: Vec<ShardEvent> = Vec::new();
        while next_fault < faults.len() && faults[next_fault].0 <= now {
            burst.push(faults[next_fault].1.clone());
            next_fault += 1;
        }
        if !burst.is_empty() {
            report.fault_events += burst.len();
            report.fault_batches += 1;
            apply(&mut ctl, &mut report, burst, true, tr);
        }

        let src = NodeId(drng.below(n) as u32);
        let cross = drng.chance(spec.cross_region_pct);
        let dst = loop {
            let d = NodeId(drng.below(n) as u32);
            let same = region_of[d.0 as usize] == region_of[src.0 as usize];
            if d != src && same != cross {
                break d;
            }
        };
        if cross {
            report.boundary_demands_seen += 1;
        }
        let dag = if drng.chance(0.2) {
            TaskDag::chain(vec![prims[drng.below(3)], prims[drng.below(3)]])
        } else {
            TaskDag::single(prims[drng.below(3)])
        };
        let mut batch = vec![ShardEvent::Arrive(Demand::new(i as u32, src, dst, dag))];
        if fifo.len() >= spec.max_live {
            batch.push(ShardEvent::Depart(
                fifo.pop_front().expect("fifo holds max_live"),
            ));
        }
        fifo.push_back(i as u32);
        apply(&mut ctl, &mut report, batch, false, tr);

        if spec.check_every > 0 && (i + 1) % spec.check_every == 0 {
            tr.begin("shard.checkpoint");
            let mut scratch = ctl.clone();
            scratch.full_resolve();
            assert_eq!(
                ctl.placements(),
                scratch.placements(),
                "incremental state drifted from scratch re-solve after event {i}"
            );
            ctl.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated after event {i}: {e}"));
            tr.end();
            report.differential_checks += 1;
        }
    }

    report.final_live = ctl.live_count();
    report.final_satisfied = ctl.satisfied_count();
    report.final_objective = ctl.objective();

    tr.begin("controller.build_plan");
    let demands = ctl.live_demands();
    let placements: Vec<Option<Vec<NodeId>>> = ctl.placements().into_values().collect();
    let plan = build_plan_from_placements(&demands, &placements);
    tr.end();
    report.te_installs = plan.installs.len();
    report.te_overrides = plan.overrides.len();
    report.te_unsatisfied = plan.unsatisfied.len();

    (report, decisions)
}

// --- ingest_overload -------------------------------------------------

fn ingest_config(seed: u64) -> IngestConfig {
    IngestConfig {
        seed,
        ..ofpc_bench::ingest::full_config()
    }
}

// --- serve_sweep / verified_serving ----------------------------------

/// The E12 deployment and tenant mix (`expt_serving`).
const WDM_CHANNELS: usize = 4;
const OPERAND_LEN: usize = 2048;
const HORIZON_PS: u64 = 2_000_000_000;
const DRAIN_PS: u64 = 1_000_000_000;
const LOAD_FRACS: [f64; 10] = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];

/// Saturation knee of the two-slot metro deployment with full,
/// affinity-hot batches of 8 (≈15.52 Mreq/s).
fn knee_rps() -> f64 {
    let model =
        ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), WDM_CHANNELS);
    let class = BatchClass {
        primitive: Primitive::VectorDotProduct,
        operand_len: OPERAND_LEN as u32,
    };
    let (service_ps, _) = model.batch_service(class, 8, Some(class));
    2.0 * 8.0 / (service_ps as f64 * 1e-12)
}

fn e12_config(seed: u64, total_rps: f64, batching: bool, verify_every: u64) -> ServeConfig {
    let batch = if batching {
        BatchPolicy {
            max_batch: 8,
            max_wait_ps: 5_000_000,
        }
    } else {
        BatchPolicy::disabled()
    };
    ServeConfig {
        seed,
        horizon_ps: HORIZON_PS,
        drain_grace_ps: DRAIN_PS,
        batch,
        tenants: vec![
            TenantSpec {
                name: "steady".to_string(),
                weight: 3,
                queue_capacity: 96,
                arrivals: ArrivalSpec::Poisson {
                    rate_rps: total_rps * 0.75,
                },
                primitive: Primitive::VectorDotProduct,
                operand_len: OPERAND_LEN,
                deadline_ps: 2_000_000_000,
            },
            TenantSpec {
                name: "bursty".to_string(),
                weight: 1,
                queue_capacity: 32,
                arrivals: ArrivalSpec::Mmpp {
                    calm_rps: total_rps * 0.125,
                    burst_rps: total_rps * 1.125,
                    mean_calm_s: 200e-6,
                    mean_burst_s: 50e-6,
                },
                primitive: Primitive::VectorDotProduct,
                operand_len: OPERAND_LEN,
                deadline_ps: 2_000_000_000,
            },
        ],
        verify_every,
    }
}

fn e12_scenario(seed: u64, load_frac: f64, batching: bool, verify_every: u64) -> SweepScenario {
    let config = e12_config(seed, load_frac * knee_rps(), batching, verify_every);
    let label = format!("load-{load_frac}-batching-{batching}");
    let mut s = SweepScenario::metro(&label, seed, WDM_CHANNELS, config);
    s.verify_backend = KernelBackend::Vectorized;
    s
}

/// Replicas of the E12 inputs per pass. Arrivals at and past the knee
/// follow a bursty MMPP over a 2 ms horizon, so one seed's work (and
/// its shed share) varies by ±10 %; replicas average that out.
const SWEEP_REPLICAS: u64 = 2;
const VERIFIED_REPLICAS: u64 = 8;

/// Seeds of the replicas: the given seed first, then seeds split from it.
fn replica_seeds(seed: u64, replicas: u64) -> impl Iterator<Item = u64> {
    (0..replicas).map(move |j| {
        if j == 0 {
            seed
        } else {
            ofpc_par::split_seed(seed, j)
        }
    })
}

/// The E12 grid in harness order (batching on, then off; load rising),
/// once per replica seed.
fn sweep_scenarios(seed: u64) -> Vec<SweepScenario> {
    replica_seeds(seed, SWEEP_REPLICAS)
        .flat_map(|s| {
            [true, false].into_iter().flat_map(move |batching| {
                LOAD_FRACS
                    .into_iter()
                    .map(move |f| e12_scenario(s, f, batching, 256))
            })
        })
        .collect()
}

/// The E12 knee with every dispatched batch re-checked on the
/// photonic dot-product unit, once per replica seed.
fn verified_scenarios(seed: u64) -> Vec<SweepScenario> {
    replica_seeds(seed, VERIFIED_REPLICAS)
        .map(|s| e12_scenario(s, 1.0, true, 1))
        .collect()
}

/// `SweepScenario::run` split at its build step, so that set-up
/// (including the verify unit's calibration) is timed apart.
fn build_runtime(s: &SweepScenario) -> ServeRuntime {
    let mut sys = OnFiberNetwork::new(Topology::line(s.nodes, s.span_km), s.net_seed);
    for &(node, slots) in &s.upgrades {
        sys.upgrade_site(NodeId(node), slots);
    }
    assert!(s.realistic_transponder && s.engine_faults.is_empty() && !s.digital_fallback);
    ServeRuntime::over_network(
        &sys,
        NodeId(s.front_end),
        &ComputeTransponderConfig::realistic(),
        s.wdm_channels,
        s.config.clone(),
    )
    .with_verify_backend(s.verify_backend)
}

/// Run the scenarios: one coarse scatter over the pool for the sweep
/// (as `ofpc_serve::run_sweep`), inline one after another for the
/// verified knee. Each task times its own `ServeRuntime::run`.
fn serve_run(
    workload: Workload,
    runtimes: Vec<ServeRuntime>,
    pool: &WorkerPool,
    tr: &mut Tracer,
) -> (Vec<ServeReport>, Vec<f64>) {
    let timed = |_: usize, rt: ServeRuntime| {
        let start = Instant::now();
        let report = rt.run();
        (report, start, Instant::now())
    };
    let out = if workload == Workload::ServeSweep {
        tr.begin("serve.run_sweep");
        let out = pool.scatter_gather("serve-sweep", runtimes, timed);
        for &(_, start, end) in &out {
            tr.record("serve.run", start, end);
        }
        tr.end();
        out
    } else {
        runtimes
            .into_iter()
            .map(|rt| {
                let out = timed(0, rt);
                tr.record("serve.run", out.1, out.2);
                out
            })
            .collect()
    };
    let run_s = out
        .iter()
        .map(|(_, a, b)| b.duration_since(*a).as_secs_f64())
        .collect();
    (out.into_iter().map(|(r, _, _)| r).collect(), run_s)
}

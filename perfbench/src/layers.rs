//! Per-layer attribution for the traced run: layer microtimings, the
//! per-layer metrics, and the share table.
//!
//! Spans (see [`crate::trace`]) time each call from this benchmark into
//! a layer. Layers that are called from inside another layer (the pool
//! inside the controller, frame parsing inside ingest, the dot-product
//! unit inside the serving loop) are estimated as count × microtiming,
//! where the count comes from the run's own report or the pool's
//! telemetry counters.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig, KernelBackend};
use ofpc_net::{Addr, Packet, PchFrame, PchHeader};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_telemetry::{labels, Telemetry};

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{Decision, Detail, Pass, Workload};

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// never enters a layer reports that layer's metrics as 0.
pub const METRICS: [(&str, &str); 38] = [
    ("par.scatter_calls", "count"),
    ("par.tasks", "count"),
    ("par.scatter_us", "us"),
    ("par.est_share", "ratio"),
    ("shard.arrival_p50_us", "us"),
    ("shard.arrival_p99_us", "us"),
    ("shard.fault_batch_p50_us", "us"),
    ("shard.rerun_p50_us", "us"),
    ("shard.skip_p50_us", "us"),
    ("shard.boundary_rerun_ratio", "ratio"),
    ("shard.resolves_per_decision", "ratio"),
    ("shard.checkpoint_ms", "ms"),
    ("shard.new_ms", "ms"),
    ("ingest.new_ms", "ms"),
    ("ingest.run_s", "s"),
    ("ingest.host_us_per_frame", "us"),
    ("ingest.goodput_ratio", "ratio"),
    ("ingest.frames_rejected", "count"),
    ("ingest.shed", "count"),
    ("ingest.unfinished", "count"),
    ("ingest.migrations", "count"),
    ("ingest.slot_moves", "count"),
    ("net.frame_roundtrip_ns", "ns"),
    ("net.est_share", "ratio"),
    ("serve.scenario_ms_p50", "ms"),
    ("serve.scenario_ms_max", "ms"),
    ("serve.host_ns_per_arrival.batched", "ns"),
    ("serve.host_ns_per_arrival.unbatched", "ns"),
    ("serve.build_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch_occupancy", "ratio"),
    ("serve.shed_rate", "ratio"),
    ("serve.verified_samples", "count"),
    ("engine.dot_nonneg_us", "us"),
    ("engine.calibrate_ms", "ms"),
    ("engine.est_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.covered_share", "ratio"),
];

pub struct LayerReport {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub table: String,
}

/// Median host µs of a 2-task no-op `scatter_gather` on `pool`.
fn scatter_us(pool: &WorkerPool) -> f64 {
    let once = || {
        let t = Instant::now();
        let out = pool.scatter_gather("noop", vec![0u8, 1], |i, v| {
            std::hint::black_box(i + usize::from(v))
        });
        std::hint::black_box(out);
        t.elapsed().as_secs_f64() * 1e6
    };
    (0..50).for_each(|_| {
        once();
    });
    let mut samples: Vec<f64> = (0..2_000).map(|_| once()).collect();
    median(&mut samples)
}

/// The serving verify unit: realistic devices, vectorized kernels.
fn verify_unit() -> DotProductUnit {
    let mut rng = SimRng::seed_from_u64(12).derive("verify-engine");
    let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng);
    unit.calibrate(256);
    unit.config.backend = KernelBackend::Vectorized;
    unit.calibrate(256);
    unit
}

/// Median ms to build and calibrate the verify unit, as every
/// `ServeRuntime` set-up does.
fn calibrate_ms() -> f64 {
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(verify_unit());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// Median µs of one 2048-operand `dot_nonneg`, the serving verify call.
fn dot_nonneg_us() -> f64 {
    let mut unit = verify_unit();
    let a: Vec<f64> = (0..2048).map(|k| (k % 255) as f64 / 255.0).collect();
    let w = vec![0.5; a.len()];
    let mut once = || {
        let t = Instant::now();
        std::hint::black_box(unit.dot_nonneg(std::hint::black_box(&a), &w));
        t.elapsed().as_secs_f64() * 1e6
    };
    (0..20).for_each(|_| {
        once();
    });
    let mut samples: Vec<f64> = (0..300).map(|_| once()).collect();
    median(&mut samples)
}

/// Median ns of `Packet::compute(..).to_wire()` + `PchFrame::parse`,
/// per E21 tenant class, weighted by each class's offered rate.
fn frame_roundtrip_ns() -> f64 {
    const BATCH: usize = 100;
    let classes = ofpc_bench::ingest::full_config().classes;
    let total_rate: f64 = classes
        .iter()
        .map(|c| c.mean_rate_rps * f64::from(c.population))
        .sum();
    let mut weighted = 0.0;
    for c in &classes {
        let payload = Bytes::from(
            (0..c.operand_len as usize)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>(),
        );
        let pch = PchHeader {
            primitive: c.primitive,
            flags: 0,
            op_id: 7,
            result_q88: 0,
            operand_len: c.operand_len,
        };
        let batch = || {
            let t = Instant::now();
            for id in 0..BATCH as u32 {
                let wire =
                    Packet::compute(Addr(id), Addr::new(10, 0, 0, 1), id, pch, payload.clone())
                        .to_wire();
                let frame = PchFrame::parse(std::hint::black_box(wire)).expect("well-formed frame");
                std::hint::black_box(frame.operand_len());
            }
            t.elapsed().as_secs_f64() * 1e9 / BATCH as f64
        };
        (0..20).for_each(|_| {
            batch();
        });
        let mut samples: Vec<f64> = (0..300).map(|_| batch()).collect();
        weighted += median(&mut samples) * c.mean_rate_rps * f64::from(c.population) / total_rate;
    }
    weighted
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn p50(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Per-layer metrics and share table for one workload. `plain` is the
/// untraced pass, `traced` the pass recorded in `tr` on a pool whose
/// telemetry handle is `tel`; `pool` is the untraced workload pool.
pub fn attribute(
    workload: Workload,
    plain: &Pass,
    traced: &Pass,
    detail: &Detail,
    tr: &Tracer,
    tel: &Telemetry,
    pool: &WorkerPool,
) -> LayerReport {
    let snap = tel.snapshot();
    let calls = snap.counter("par_scatter_total", &Vec::new()).unwrap_or(0) as f64;
    let tasks: f64 = (0..pool.workers())
        .filter_map(|w| snap.counter("par_tasks_total", &labels(&[("worker", &w.to_string())])))
        .sum::<u64>() as f64;
    let scatter = scatter_us(pool);
    let dot = dot_nonneg_us();
    let frame = frame_roundtrip_ns();
    let run = plain.run_s;
    let traced_run = tr.total_secs("run");

    let mut m: Vec<(&'static str, &'static str, f64)> = METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, 0.0))
        .collect();
    let mut set = |name: &str, value: f64| {
        let slot = m
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = value;
    };

    let par_secs = calls * scatter * 1e-6;
    set("par.scatter_calls", calls);
    set("par.tasks", tasks);
    set("par.scatter_us", scatter);
    set("par.est_share", par_secs / run);
    set("net.frame_roundtrip_ns", frame);
    set("engine.dot_nonneg_us", dot);
    set("engine.calibrate_ms", calibrate_ms());
    set("trace.overhead_ratio", traced.run_s / run);
    set("trace.covered_share", tr.child_secs("run") / traced_run);

    // Share rows: (layer, how it is known, seconds of the traced run).
    let mut rows: Vec<(&str, &str, f64)> = Vec::new();
    match detail {
        Detail::Churn { report, decisions } => {
            let us = |keep: &dyn Fn(&Decision) -> bool| -> Vec<f64> {
                decisions
                    .iter()
                    .filter(|d| keep(d))
                    .map(|d| d.ns as f64 / 1e3)
                    .collect()
            };
            let mut arrivals = us(&|d| !d.fault_batch);
            set("shard.arrival_p50_us", p50(&mut arrivals));
            set("shard.arrival_p99_us", quantile(&mut arrivals, 0.99));
            set("shard.fault_batch_p50_us", p50(&mut us(&|d| d.fault_batch)));
            set("shard.rerun_p50_us", p50(&mut us(&|d| d.boundary_rerun)));
            set("shard.skip_p50_us", p50(&mut us(&|d| !d.boundary_rerun)));
            let n = decisions.len() as f64;
            set(
                "shard.boundary_rerun_ratio",
                report.boundary_reruns as f64 / n,
            );
            set(
                "shard.resolves_per_decision",
                report.shard_resolves as f64 / n,
            );
            let mut checkpoints: Vec<f64> = tr
                .spans()
                .iter()
                .filter(|s| s.name == "shard.checkpoint")
                .map(|s| ms(s.secs()))
                .collect();
            set("shard.checkpoint_ms", p50(&mut checkpoints));
            set("shard.new_ms", ms(tr.total_secs("shard.new")));
            let apply = tr.total_secs("shard.apply_batch");
            rows.push(("ofpc-par scatter/join", "est. calls x scatter_us", par_secs));
            rows.push((
                "ofpc-shard apply_batch (self)",
                "spans - par",
                apply - par_secs,
            ));
            rows.push((
                "ofpc-shard checkpoint",
                "spans",
                tr.total_secs("shard.checkpoint"),
            ));
            rows.push((
                "ofpc-controller build_plan",
                "span",
                tr.total_secs("controller.build_plan"),
            ));
        }
        Detail::Ingest { report } => {
            let frames = (report.frames.parsed + report.frames.rejected_total) as f64;
            let ingest_run = tr.total_secs("ingest.run");
            // Shards run on the pool, so per-frame work divides over
            // the workers the epoch scatter used.
            let par_width = pool.workers().min(report.shards as usize) as f64;
            let net_secs = frames * frame * 1e-9 / par_width;
            set("ingest.new_ms", ms(tr.total_secs("ingest.new")));
            set("ingest.run_s", ingest_run);
            set("ingest.host_us_per_frame", plain.run_s * 1e6 / frames);
            set(
                "ingest.goodput_ratio",
                report.completed as f64 / report.parsed as f64,
            );
            set(
                "ingest.frames_rejected",
                report.frames.rejected_total as f64,
            );
            set("ingest.shed", report.shed as f64);
            set("ingest.unfinished", report.unfinished as f64);
            set("ingest.migrations", report.rebalance.migrations as f64);
            set("ingest.slot_moves", report.rebalance.slot_moves as f64);
            set("net.est_share", net_secs / run);
            rows.push(("ofpc-par scatter/join", "est. calls x scatter_us", par_secs));
            rows.push((
                "ofpc-net frame build+parse",
                "est. frames x roundtrip / tasks at once",
                net_secs,
            ));
            rows.push((
                "ofpc-ingest run (self)",
                "span - par - net",
                ingest_run - par_secs - net_secs,
            ));
        }
        Detail::Serve {
            reports,
            batching,
            run_s,
        } => {
            let mut scenario_ms: Vec<f64> = run_s.iter().map(|&s| ms(s)).collect();
            set("serve.scenario_ms_p50", p50(&mut scenario_ms));
            set("serve.scenario_ms_max", quantile(&mut scenario_ms, 1.0));
            for (on, name) in [
                (true, "serve.host_ns_per_arrival.batched"),
                (false, "serve.host_ns_per_arrival.unbatched"),
            ] {
                let (secs, arrivals) = reports
                    .iter()
                    .zip(run_s)
                    .zip(batching)
                    .filter(|(_, &b)| b == on)
                    .fold((0.0, 0u64), |(s, a), ((r, t), _)| (s + t, a + r.arrivals));
                if arrivals > 0 {
                    set(name, secs * 1e9 / arrivals as f64);
                }
            }
            set("serve.build_ms", ms(tr.total_secs("serve.build")));
            let batches: u64 = reports.iter().map(|r| r.batches).sum();
            let occupied: f64 = reports
                .iter()
                .map(|r| r.mean_batch_occupancy * r.batches as f64)
                .sum();
            let arrivals: u64 = reports.iter().map(|r| r.arrivals).sum();
            let shed: u64 = reports.iter().map(|r| r.shed).sum();
            let verified: u64 = reports.iter().map(|r| r.verified_samples).sum();
            set("serve.batches", batches as f64);
            set("serve.mean_batch_occupancy", occupied / batches as f64);
            set("serve.shed_rate", shed as f64 / arrivals as f64);
            set("serve.verified_samples", verified as f64);
            // The sweep's scenarios run on the pool; the verified
            // knee's run inline, one after another.
            let sweep = workload == Workload::ServeSweep;
            let par_width = if sweep {
                pool.workers().min(reports.len()) as f64
            } else {
                1.0
            };
            let engine_secs = verified as f64 * dot * 1e-6 / par_width;
            let outer = if sweep {
                tr.total_secs("serve.run_sweep")
            } else {
                tr.total_secs("serve.run")
            };
            set("engine.est_share", engine_secs / run);
            rows.push(("ofpc-par scatter/join", "est. calls x scatter_us", par_secs));
            rows.push((
                "ofpc-engine dot_nonneg",
                "est. samples x dot_us / tasks at once",
                engine_secs,
            ));
            rows.push((
                "ofpc-serve run (self)",
                "span - par - engine",
                outer - par_secs - engine_secs,
            ));
        }
    }

    let mut table = String::new();
    writeln!(
        table,
        "layer shares of {} traced run seconds ({:.3} s; untraced {:.3} s)",
        workload.name(),
        traced_run,
        run
    )
    .expect("writing to a String cannot fail");
    let mut attributed = 0.0;
    for (layer, how, secs) in &rows {
        attributed += secs;
        writeln!(table, "  {layer:<32} {:>7.3}  {how}", secs / traced_run)
            .expect("writing to a String cannot fail");
    }
    writeln!(
        table,
        "  {:<32} {:>7.3}  run - named layers",
        "unattributed (benchmark loop)",
        (traced_run - attributed) / traced_run
    )
    .expect("writing to a String cannot fail");

    LayerReport { metrics: m, table }
}

/// Write the traced run's spans beside the benchmark; returns the path.
pub fn write_spans(workload: Workload, seed: u64, tr: &Tracer) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.json", workload.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    path
}

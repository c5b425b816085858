//! `perfbench` — the repository's host-time benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run ... -- --pin        # print the 1-worker digests of the default seeds
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md` for
//! the workloads, the metrics and the layer each metric attributes.

mod layers;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ofpc_par::WorkerPool;

use stats::{median, quantile};
use trace::Tracer;
use workloads::{Detail, Pass, Workload};

/// Worker threads of every workload's pool: what `WorkerPool::from_env`
/// picks on the 2-core machine the baselines were taken on.
const WORKERS: usize = 2;

/// Decision samples per segment. Each segment's p50 and p99 are taken
/// apart and the run reports their medians, so a burst of host load
/// that stalls one stretch of a run moves one segment, not the run's
/// figure. A pass that gives one sample is one segment.
const SEGMENT: usize = 10_000;

/// Set-up is repeated until it has this many samples and this much
/// time, so that its median is steady even when one set-up takes 0.1 ms.
const MIN_SETUPS: usize = 11;
const MIN_SETUP_SECS: f64 = 0.5;
const MAX_SETUPS: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] | --pin",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            return None;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = num().max(1),
            "--trace" => trace = num() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Some(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// The 1-worker reference run, made first in every run (it also warms
/// the process up). Returns the digest every pass must reproduce: the
/// pinned one for the default seed, else the reference's own; and
/// whether the reference itself was wrong.
fn reference(args: &Args) -> (String, bool) {
    let got = catch_unwind(AssertUnwindSafe(|| {
        args.workload.reference_digest(args.seed)
    }))
    .unwrap_or_else(|_| "panicked".to_string());
    if args.seed == args.workload.default_seed() {
        let pinned = args.workload.pinned_digest().to_string();
        let wrong = got != pinned;
        if wrong {
            eprintln!("perfbench: 1-worker reference digest {got} != pinned {pinned}");
        }
        (pinned, wrong)
    } else {
        (got, false)
    }
}

/// One guarded pass: a panic counts as a failed run, not a crash.
fn try_pass(args: &Args, pool: &WorkerPool, tr: &mut Tracer) -> Option<(Pass, Detail)> {
    catch_unwind(AssertUnwindSafe(|| {
        workloads::run_pass(args.workload, args.seed, pool, tr)
    }))
    .ok()
}

/// Whether a pass ran and reproduced the expected digest.
fn pass_ok(args: &Args, pass: &Option<(Pass, Detail)>, expected: &str) -> bool {
    match pass {
        Some((p, _)) if p.digest == expected => true,
        Some((p, _)) => {
            eprintln!(
                "perfbench: {} seed {}: digest {} != expected {expected}",
                args.workload.name(),
                args.seed,
                p.digest
            );
            false
        }
        None => false,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// `(p50, p99)` of the passes' decision samples: medians over
/// [`SEGMENT`]-sample segments of each pass.
fn decision_percentiles(passes: &[Pass]) -> (f64, f64) {
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = passes
        .iter()
        .flat_map(|p| p.decision_us.chunks(SEGMENT))
        .map(|chunk| {
            let mut c = chunk.to_vec();
            (median(&mut c), quantile(&mut c, 0.99))
        })
        .unzip();
    (median(&mut p50s), median(&mut p99s))
}

/// Timed runs, tracing off: end-to-end metrics.
fn timed(args: &Args) -> Outcome {
    let (expected, reference_wrong) = reference(args);
    let mut attempted = 1u64;
    let mut failed = u64::from(reference_wrong);

    let pool = WorkerPool::new(WORKERS);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        attempted += 1;
        let pass = try_pass(args, &pool, &mut Tracer::new(false));
        if !pass_ok(args, &pass, &expected) {
            failed += 1;
        }
        // Only the timings are kept, so earlier passes do not add to
        // the memory high-water mark of later ones.
        if let Some((p, _)) = pass {
            passes.push(p);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let mut setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let setup_start = Instant::now();
    while setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || setup_start.elapsed().as_secs_f64() < MIN_SETUP_SECS)
    {
        setup_s.push(workloads::setup_only(args.workload, args.seed, &pool));
    }

    let mut metrics = Vec::new();
    if !passes.is_empty() {
        let mut wall: Vec<f64> = passes.iter().map(|p| p.setup_s + p.run_s).collect();
        let mut rate: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.run_s).collect();
        let (p50, p99) = decision_percentiles(&passes);
        eprintln!(
            "perfbench: {} seed {}: {} passes, {} ops each, {} decision samples, {} set-ups",
            args.workload.name(),
            args.seed,
            passes.len(),
            passes[0].ops,
            passes.iter().map(|p| p.decision_us.len()).sum::<usize>(),
            setup_s.len()
        );
        metrics = vec![
            ("setup_s", "s", median(&mut setup_s)),
            ("wall_s", "s", median(&mut wall)),
            ("ops_per_s", "1/s", median(&mut rate)),
            ("decision_p50_us", "us", p50),
            ("decision_p99_us", "us", p99),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ];
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The reference run, an untraced and a traced pass, then the layer
/// microtimings: per-layer metrics and the share table.
fn traced(args: &Args) -> Outcome {
    let (expected, reference_wrong) = reference(args);
    let pool = WorkerPool::new(WORKERS);
    let plain = try_pass(args, &pool, &mut Tracer::new(false));
    let tel = ofpc_telemetry::Telemetry::enabled();
    let traced_pool = WorkerPool::new(WORKERS).with_telemetry(&tel);
    let mut tr = Tracer::new(true);
    let traced = try_pass(args, &traced_pool, &mut tr);

    let attempted = 3;
    let failed = u64::from(reference_wrong)
        + u64::from(!pass_ok(args, &plain, &expected))
        + u64::from(!pass_ok(args, &traced, &expected));
    let metrics = match (plain, traced) {
        (Some((plain, _)), Some((traced, detail))) => {
            let report =
                layers::attribute(args.workload, &plain, &traced, &detail, &tr, &tel, &pool);
            println!("{}", report.table);
            let path = layers::write_spans(args.workload, args.seed, &tr);
            eprintln!("perfbench: spans written to {path}");
            report.metrics
        }
        _ => Vec::new(),
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn pin() {
    for w in Workload::ALL {
        println!("{} {}", w.name(), w.reference_digest(w.default_seed()));
    }
}

fn main() {
    let Some(args) = parse_args() else {
        pin();
        return;
    };
    let out = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    let correct = out.failed == 0 && !out.metrics.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

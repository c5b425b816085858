//! The bench-gate harness: timing helpers and the one comparison of a
//! measured figure against the shared `BENCH_BASELINE.json` at the repo
//! root.
//!
//! The baseline is a flat JSON map shared by every gated bench. Each
//! bench owns its figure keys plus a core-count stamp key recording the
//! machine shape its figures were taken on. The policy:
//!
//! * a gate compares only against a figure stamped with this machine's
//!   core count. On a core mismatch, a missing key or an unreadable file
//!   it prints a loud `SKIPPED (<reason>)` line and returns
//!   [`Verdict::Skipped`] — it never re-records, so a gate cannot pass by
//!   rewriting its own baseline;
//! * checking never writes. Only `OFPC_BENCH_RECORD=1` writes
//!   ([`Gate::run`]), and it merges the bench's keys into the existing
//!   map, leaving every other key as it was.

use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// The shared baseline file at the repo root, tracked in git.
pub const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");

/// Cores available to this process (the baseline's machine-shape stamp).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f`. The
/// minimum is the robust estimator of how fast this machine runs `f`:
/// one preempted trial cannot move it.
pub fn best_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Median of `samples` (upper median for an even count), sorting them
/// in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Which way a gated figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of one baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// Nothing was compared; the reason says why.
    Skipped(String),
}

/// One gated figure: `key` in the baseline, compared against a measured
/// value in direction `better` with a multiplicative `bound`.
#[derive(Debug, Clone, Copy)]
pub struct Gate<'a> {
    /// Bench name, prefixed to every printed line.
    pub bench: &'a str,
    /// Baseline key of the pinned figure.
    pub key: &'a str,
    /// Baseline key of the core count the figure was recorded on.
    pub cores_key: &'a str,
    /// Unit printed after the figures.
    pub unit: &'a str,
    pub better: Better,
    /// `Lower` passes at `measured ≤ pinned × bound`, `Higher` at
    /// `measured ≥ pinned ÷ bound`.
    pub bound: f64,
}

impl Gate<'_> {
    /// Compare `measured` against the baseline file at `path` as a
    /// `cores`-core machine, printing the comparison or the `SKIPPED`
    /// line. Never writes.
    pub fn check(&self, path: &Path, cores: usize, measured: f64) -> Verdict {
        let verdict = self.compare(path, cores, measured);
        if let Verdict::Skipped(reason) = &verdict {
            println!(
                "{}: {} gate SKIPPED ({reason}); not compared, baseline left unchanged",
                self.bench, self.key
            );
        }
        verdict
    }

    fn compare(&self, path: &Path, cores: usize, measured: f64) -> Verdict {
        let map = match load(path) {
            Ok(map) => map,
            Err(reason) => return Verdict::Skipped(reason),
        };
        let (Some(stamp), Some(pinned)) = (get(&map, self.cores_key), get(&map, self.key)) else {
            return Verdict::Skipped(format!(
                "no `{}`/`{}` in the baseline",
                self.key, self.cores_key
            ));
        };
        if stamp as usize != cores {
            return Verdict::Skipped(format!(
                "baseline is from a {}-core machine, this one has {cores}",
                stamp as usize
            ));
        }
        let (limit, pass) = match self.better {
            Better::Lower => (pinned * self.bound, measured <= pinned * self.bound),
            Better::Higher => (pinned / self.bound, measured >= pinned / self.bound),
        };
        let unit = self.unit;
        println!(
            "{}: {} {measured:.3} {unit} vs baseline {pinned:.3} {unit} (gate {limit:.3} {unit})",
            self.bench, self.key
        );
        if pass {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    /// [`Gate::check`] against the shared baseline on this machine,
    /// panicking (failing the bench) on [`Verdict::Fail`].
    pub fn enforce(&self, measured: f64) {
        let verdict = self.check(Path::new(BASELINE_PATH), cores(), measured);
        assert!(
            verdict != Verdict::Fail,
            "{}: {} regressed past its bound ({measured:.3} {}); if intentional, re-pin with \
             OFPC_BENCH_RECORD=1",
            self.bench,
            self.key,
            self.unit
        );
    }

    /// The baseline step of a bench: with `OFPC_BENCH_RECORD` set, pin
    /// `measured` under [`Gate::key`] (plus the `extra` figures and this
    /// machine's core stamp) instead of comparing; otherwise
    /// [`Gate::enforce`].
    pub fn run(&self, measured: f64, extra: &[(&str, f64)]) {
        if std::env::var_os("OFPC_BENCH_RECORD").is_none() {
            return self.enforce(measured);
        }
        let entries: Vec<(&str, f64)> = std::iter::once((self.key, measured))
            .chain(extra.iter().copied())
            .collect();
        let n = cores();
        record_at(Path::new(BASELINE_PATH), self.cores_key, n, &entries)
            .expect("OFPC_BENCH_RECORD: write BENCH_BASELINE.json");
        println!(
            "{}: recorded {entries:?} on {n} core(s) (OFPC_BENCH_RECORD set)",
            self.bench
        );
    }
}

/// Merge `entries` (as floats) and the `cores_key` stamp into the
/// baseline file at `path`, keeping every other key and the key order.
/// A missing file starts an empty map; an unparsable one is an error
/// rather than something to overwrite.
fn record_at(
    path: &Path,
    cores_key: &str,
    cores: usize,
    entries: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut map = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text)
            .map_err(|reason| std::io::Error::new(std::io::ErrorKind::InvalidData, reason))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let stamp = (cores_key, Value::UInt(cores as u64));
    let figures = entries.iter().map(|&(k, v)| (k, Value::Float(v)));
    for (key, value) in std::iter::once(stamp).chain(figures) {
        match map.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => map.push((key.to_string(), value)),
        }
    }
    let json = serde_json::to_string_pretty(&Value::Map(map))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

fn load(path: &Path) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text)
}

fn parse(text: &str) -> Result<Vec<(String, Value)>, String> {
    match serde_json::from_str::<Value>(text) {
        Ok(Value::Map(map)) => Ok(map),
        Ok(_) => Err("baseline is not a JSON object".to_string()),
        Err(e) => Err(format!("unreadable baseline ({e})")),
    }
}

fn get(map: &[(String, Value)], key: &str) -> Option<f64> {
    map.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const GATE: Gate<'static> = Gate {
        bench: "test",
        key: "t_ms",
        cores_key: "t_cores",
        unit: "ms",
        better: Better::Lower,
        bound: 1.5,
    };

    /// A baseline file private to one test (tests run in parallel).
    fn temp_baseline(name: &str, text: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("ofpc_gate_{name}_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn core_mismatch_skips_and_leaves_the_file_alone() {
        let path = temp_baseline(
            "mismatch",
            "{\n  \"t_cores\": 1,\n  \"t_ms\": 10.0,\n  \"other\": 3\n}\n",
        );
        let before = std::fs::read(&path).unwrap();
        // 100 ms would fail a 10 ms × 1.5 gate — but the stamp is 1 core.
        let verdict = GATE.check(&path, 2, 100.0);
        assert!(matches!(verdict, Verdict::Skipped(_)), "{verdict:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // A missing key skips the same way.
        let missing = Gate {
            key: "absent_ms",
            ..GATE
        };
        assert!(matches!(missing.check(&path, 1, 1.0), Verdict::Skipped(_)));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn matching_cores_gate_in_the_stated_direction() {
        let path = temp_baseline("compare", "{\"t_cores\": 2, \"t_ms\": 10.0}");
        assert_eq!(GATE.check(&path, 2, 15.0), Verdict::Pass);
        assert_eq!(GATE.check(&path, 2, 15.1), Verdict::Fail);
        let higher = Gate {
            better: Better::Higher,
            ..GATE
        };
        assert_eq!(higher.check(&path, 2, 7.0), Verdict::Pass);
        assert_eq!(higher.check(&path, 2, 6.0), Verdict::Fail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_merges_and_keeps_unrelated_keys() {
        let path = temp_baseline(
            "record",
            "{\"a_cores\": 1, \"a_ms\": 1.5, \"t_ms\": 99.0, \"z\": 7}",
        );
        record_at(&path, "t_cores", 2, &[("t_ms", 12.5), ("t_extra", 0.25)]).unwrap();
        let map = load(&path).unwrap();
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a_cores", "a_ms", "t_ms", "z", "t_cores", "t_extra"]);
        assert_eq!(get(&map, "a_cores"), Some(1.0));
        assert_eq!(get(&map, "a_ms"), Some(1.5));
        assert_eq!(get(&map, "z"), Some(7.0));
        assert_eq!(get(&map, "t_ms"), Some(12.5));
        assert_eq!(get(&map, "t_cores"), Some(2.0));
        assert_eq!(GATE.check(&path, 2, 12.5), Verdict::Pass);
        std::fs::remove_file(&path).unwrap();
    }
}

//! The ordered scatter/gather worker pool.
//!
//! Determinism contract (DESIGN.md §8): the pool may only run tasks that
//! are pure functions of their inputs (seeded via
//! [`crate::sweep::split_seed`], no shared mutable state beyond
//! deterministic caches). Under that contract the merged output is
//! byte-identical to a sequential left-to-right execution regardless of
//! worker count or OS scheduling, because
//!
//! 1. task → worker assignment is round-robin by submission index, fixed
//!    before any thread starts;
//! 2. results are gathered into a slot table indexed by submission
//!    index, so completion order cannot reorder them;
//! 3. telemetry attribution is emitted *after* the join, on the calling
//!    thread, in (worker, slot) order — trace bytes never depend on
//!    thread interleaving.

use ofpc_telemetry::{labels, track, Telemetry};

/// A deterministic scatter/gather worker pool.
///
/// The pool is a lightweight handle: threads are scoped to each
/// [`WorkerPool::scatter_gather`] call (no idle thread park/unpark state
/// to leak between runs), which also lets task closures borrow from the
/// caller's stack. A call from inside a task (on a clone of the same
/// pool) simply spawns its own scoped threads, so nesting cannot
/// deadlock.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
    tel: Telemetry,
}

impl WorkerPool {
    /// A pool running `workers` tasks concurrently. `workers == 1` is the
    /// sequential reference path (no threads are spawned).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        WorkerPool {
            workers,
            tel: Telemetry::disabled(),
        }
    }

    /// The sequential reference pool (1 worker, inline execution).
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// Worker count from the `OFPC_WORKERS` env var, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var("OFPC_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        WorkerPool::new(workers)
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attach an observability handle: each scatter/gather records
    /// per-worker task counters (`par_tasks_total{worker=…}`) and spans
    /// on the PAR track (`tid` = worker index, timestamps in *task-slot*
    /// units, not picoseconds). Attribution is emitted post-join in a
    /// fixed order, so enabling it never perturbs determinism.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    /// Execute `tasks` and return their results **in submission order**.
    ///
    /// `f(i, task)` receives the submission index so tasks can derive
    /// per-task seeds ([`crate::sweep::split_seed`]). With one worker (or
    /// fewer than two tasks) everything runs inline on the caller's
    /// thread — that is the sequential path the differential tests diff
    /// against. A panicking task's original payload is re-raised on the
    /// caller (the lowest failing worker's, once every thread is joined).
    pub fn scatter_gather<T, R, F>(&self, label: &str, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let shard_count = self.workers.min(n.max(1));
        if shard_count <= 1 {
            let out: Vec<R> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
            self.attribute(label, &[(0..n).collect()]);
            return out;
        }

        // Fixed round-robin sharding by submission index: the schedule is
        // decided before any thread runs.
        let mut shards: Vec<Vec<(usize, T)>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            shards[i % shard_count].push((i, t));
        }
        let assignment: Vec<Vec<usize>> = shards
            .iter()
            .map(|s| s.iter().map(|(i, _)| *i).collect())
            .collect();

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    let f = &f;
                    scope.spawn(move || {
                        shard
                            .into_iter()
                            .map(|(i, t)| (i, f(i, t)))
                            .collect::<Vec<(usize, R)>>()
                    })
                })
                .collect();
            for h in handles {
                let results = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
        });
        self.attribute(label, &assignment);
        slots
            .into_iter()
            .map(|r| r.expect("every submitted task must produce a result"))
            .collect()
    }

    /// Post-join telemetry: one span per task on the PAR track (`tid` =
    /// worker, virtual time = slot index within that worker) plus
    /// per-worker counters. Emission order is (worker, slot) — fully
    /// deterministic for a given worker count.
    fn attribute(&self, label: &str, assignment: &[Vec<usize>]) {
        if !self.tel.is_enabled() {
            return;
        }
        for (worker, indices) in assignment.iter().enumerate() {
            let w = worker.to_string();
            self.tel
                .counter("par_tasks_total", &labels(&[("worker", &w)]))
                .add(indices.len() as u64);
            for (slot, &task) in indices.iter().enumerate() {
                self.tel.span_args(
                    track::PAR,
                    worker as u64,
                    "par",
                    label,
                    slot as u64,
                    slot as u64 + 1,
                    vec![
                        ("task".to_string(), task.to_string()),
                        ("worker".to_string(), w.clone()),
                    ],
                );
            }
        }
        self.tel.counter("par_scatter_total", &Vec::new()).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::split_seed;
    use ofpc_telemetry::Telemetry;

    fn squares(pool: &WorkerPool, n: usize) -> Vec<u64> {
        pool.scatter_gather("sq", (0..n as u64).collect(), |i, v| {
            assert_eq!(i as u64, v);
            v * v
        })
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let got = squares(&pool, 23);
            let want: Vec<u64> = (0..23).map(|v| v * v).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        // A seeded pseudo-noisy task: output depends only on the per-task
        // seed, never on which worker ran it.
        let run = |workers: usize| -> Vec<u64> {
            WorkerPool::new(workers).scatter_gather("noise", (0..64usize).collect(), |i, _| {
                let mut acc = split_seed(99, i as u64);
                for _ in 0..10 {
                    acc = split_seed(acc, 1);
                }
                acc
            })
        };
        let seq = run(1);
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn empty_and_single_task_inputs() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u64> = pool.scatter_gather("e", Vec::<u64>::new(), |_, v| v);
        assert!(empty.is_empty());
        assert_eq!(pool.scatter_gather("s", vec![7u64], |_, v| v + 1), vec![8]);
    }

    #[test]
    fn telemetry_attribution_is_deterministic() {
        let emit = |workers: usize| {
            let tel = Telemetry::enabled();
            let pool = WorkerPool::new(workers).with_telemetry(&tel);
            squares(&pool, 10);
            (tel.metrics_json(), tel.chrome_trace_json())
        };
        assert_eq!(emit(3), emit(3), "same worker count ⇒ same attribution");
        let (metrics, _) = emit(2);
        // 10 tasks over 2 workers round-robin: 5 each.
        assert!(metrics.contains("par_tasks_total"));
        let tel = Telemetry::enabled();
        let pool = WorkerPool::new(2).with_telemetry(&tel);
        squares(&pool, 10);
        let snap = tel.snapshot();
        for w in ["0", "1"] {
            assert_eq!(
                snap.counter("par_tasks_total", &ofpc_telemetry::labels(&[("worker", w)])),
                Some(5)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn worker_panic_reraises_its_payload_and_the_pool_recovers() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let got = std::panic::catch_unwind(|| {
            pool.scatter_gather("boom", vec![0u32, 1], |i, v| {
                assert_ne!(std::thread::current().id(), caller);
                if i == 1 {
                    panic!("task {i} failed");
                }
                v
            })
        });
        let payload = got.expect_err("the task panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 1 failed")
        );
        assert_eq!(
            pool.scatter_gather("after", vec![3u32, 4], |_, v| v * 10),
            vec![30, 40]
        );
    }

    #[test]
    fn nested_scatter_on_a_clone_matches_the_sequential_result() {
        let run = |pool: &WorkerPool| -> Vec<Vec<u64>> {
            let inner = pool.clone();
            pool.scatter_gather("outer", (0..5u64).collect(), |i, v| {
                inner.scatter_gather("inner", (0..7u64).collect(), |j, w| {
                    split_seed(v * 100 + w, (i + j) as u64)
                })
            })
        };
        let seq = run(&WorkerPool::sequential());
        for workers in [2, 3] {
            assert_eq!(run(&WorkerPool::new(workers)), seq, "workers={workers}");
        }
    }

    #[test]
    fn concurrent_callers_on_clones_get_their_own_ordered_results() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for caller in 0..2u64 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for round in 0..1_000u64 {
                        let tasks: Vec<u64> = (0..3)
                            .map(|k| caller * 1_000_000 + round * 10 + k)
                            .collect();
                        let want: Vec<u64> = tasks.iter().map(|v| v * 2).collect();
                        assert_eq!(pool.scatter_gather("cc", tasks, |_, v| v * 2), want);
                    }
                });
            }
        });
    }

    #[test]
    fn stress_uneven_scatters_match_the_sequential_output() {
        // Task i of round r burns a seed-dependent number of steps, so
        // workers finish in every order across rounds.
        let task = |r: u64, i: usize| {
            let mut acc = split_seed(r, i as u64);
            for _ in 0..acc % 64 {
                acc = split_seed(acc, 1);
            }
            acc
        };
        for workers in [2, 3] {
            let pool = WorkerPool::new(workers);
            for r in 0..20_000u64 {
                let n = 2 + (r % 2) as usize;
                let got = pool.scatter_gather("stress", vec![r; n], |i, r| task(r, i));
                let want: Vec<u64> = (0..n).map(|i| task(r, i)).collect();
                assert_eq!(got, want, "workers={workers} round={r}");
            }
        }
    }

    #[test]
    fn from_env_honors_override() {
        // Serialized by cargo running tests in one process is not
        // guaranteed; use a unique var read path by setting and removing
        // around the call.
        std::env::set_var("OFPC_WORKERS", "3");
        assert_eq!(WorkerPool::from_env().workers(), 3);
        std::env::set_var("OFPC_WORKERS", "not-a-number");
        assert!(WorkerPool::from_env().workers() >= 1);
        std::env::remove_var("OFPC_WORKERS");
    }
}

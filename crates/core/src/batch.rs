//! Shared batch-evaluation engine.
//!
//! The figure-reproduction drivers, the parameter sweeps and the
//! simulation replication harness all evaluate many independent
//! [`SystemConfig`](crate::config::SystemConfig)s. This module gives
//! them one bounded worker pool instead of three ad-hoc loops:
//!
//! * [`par_map`] — evaluate a slice on `workers` workers with a
//!   lock-free claim cursor, returning results in **input order**. The
//!   calling thread is one of the workers and `workers − 1` scoped
//!   threads are the others, so the mapping function may borrow from
//!   the caller's stack. It runs per item with no shared mutable state,
//!   so parallel results are bit-identical to sequential ones.
//! * [`BatchOptions`] — worker-count policy: explicit, the
//!   `HMCS_POOL_WORKERS` environment variable, or
//!   [`std::thread::available_parallelism`].
//! * [`EvalStats`] / [`EvalStatsSummary`] — per-point evaluation cost
//!   (wall-clock time and fixed-point solver iterations) as reported by
//!   the batched kernel ([`crate::kernel::evaluate_batch`]).
//!
//! The kernel's own batches do not come here: they split into one lane
//! block per worker, none smaller than
//! [`crate::kernel::HELPER_MIN_LANES`], and the caller solves the first
//! block while the kernel's persistent helper threads solve the rest
//! ([`crate::kernel::evaluate_batch`]), so a warm kernel batch spawns
//! no thread. The worker-count policy and the `core.batch.*` metrics
//! are the same for both.

use crate::metrics::{self, keys};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable overriding the default worker count.
pub(crate) const WORKERS_ENV: &str = "HMCS_POOL_WORKERS";

/// Parses an `HMCS_POOL_WORKERS` value. Split out from the environment
/// lookup so operator-error handling is unit-testable without touching
/// process state.
pub(crate) fn parse_workers(raw: &str) -> Result<usize, &'static str> {
    let n: usize = raw.trim().parse().map_err(|_| "not a positive integer")?;
    if n == 0 {
        return Err("must be at least 1");
    }
    Ok(n)
}

/// Resolves `HMCS_POOL_WORKERS` once per process and caches the result.
/// An invalid value (`0`, `-2`, `"four"`) is surfaced exactly once
/// through the metrics warning channel instead of being silently
/// ignored, then treated as unset.
fn workers_from_env() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var(WORKERS_ENV) {
        Err(_) => None,
        Ok(raw) => match parse_workers(&raw) {
            Ok(n) => Some(n),
            Err(reason) => {
                metrics::warn_once(
                    keys::WARN_POOL_WORKERS_ENV,
                    format!(
                        "ignoring {WORKERS_ENV}={raw:?} ({reason}); \
                         falling back to available parallelism"
                    ),
                );
                None
            }
        },
    })
}

/// Worker-count policy for batch evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOptions {
    workers: Option<usize>,
}

impl BatchOptions {
    /// Forces single-threaded evaluation (no worker threads spawned).
    pub fn sequential() -> Self {
        BatchOptions { workers: Some(1) }
    }

    /// Uses exactly `workers` threads (floored at 1).
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions { workers: Some(workers.max(1)) }
    }

    /// The worker count this policy resolves to: the explicit value if
    /// set, else a valid `HMCS_POOL_WORKERS`, else the machine's
    /// available parallelism.
    ///
    /// The environment variable is read and validated once per process
    /// (not per call); an invalid value is reported once through
    /// [`metrics::warn_once`] under
    /// `keys::WARN_POOL_WORKERS_ENV` and otherwise ignored.
    pub fn resolved_workers(&self) -> usize {
        if let Some(n) = self.workers {
            return n.max(1);
        }
        if let Some(n) = workers_from_env() {
            return n;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f` over `items` on up to `workers` workers, returning results
/// in input order.
///
/// The calling thread is one worker and `workers − 1` scoped threads
/// are the rest. Workers claim indices from a shared atomic cursor and
/// collect `(index, result)` pairs locally; the pairs are merged after
/// all workers join, so no locks are held while `f` runs. Because `f`
/// sees exactly one item per call and nothing else is shared, the
/// output is bit-identical to `items.iter().map(f).collect()` — only
/// the wall-clock schedule differs. With one worker (or one item) no
/// threads are spawned at all. A panic in `f` reaches the caller as a
/// `batch worker panicked` panic once every worker has stopped.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(items, workers, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker scratch state: each worker calls `init`
/// once and threads the resulting value mutably through every item it
/// claims.
///
/// This is the hook for expensive reusable resources — e.g. a
/// simulator instance whose arenas and event list stay warm across the
/// replications one worker processes. Correctness contract on `f`: its
/// result must depend only on the item (the state may cache or reuse
/// storage but must not leak information between items), so the output
/// stays bit-identical to the sequential path regardless of worker
/// count or claim order. The calling thread's share uses one of the
/// `workers` states. With one worker (or one item) no threads are
/// spawned and a single state value is used throughout.
pub fn par_map_init<T, S, U, FInit, F>(items: &[T], workers: usize, init: FInit, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    FInit: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let workers = workers.max(1).min(items.len());
    let instrumented = metrics::enabled();
    if instrumented {
        metrics::counter(keys::BATCH_CALLS).incr();
        metrics::counter(keys::BATCH_ITEMS).add(items.len() as u64);
    }
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let drain = || {
        // The timers below only observe the schedule (drain balance,
        // busy vs idle); they never influence which items a worker
        // claims or what `f` computes, so results stay bit-identical to
        // the sequential path.
        let spawned = Instant::now();
        let mut busy = std::time::Duration::ZERO;
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            if instrumented {
                let t0 = Instant::now();
                let out = f(&mut state, &items[i]);
                busy += t0.elapsed();
                local.push((i, out));
            } else {
                local.push((i, f(&mut state, &items[i])));
            }
        }
        if instrumented {
            let total = spawned.elapsed();
            metrics::histogram(keys::BATCH_WORKER_ITEMS).record(local.len() as u64);
            metrics::histogram(keys::BATCH_WORKER_BUSY_US).record_f64(busy.as_secs_f64() * 1e6);
            metrics::histogram(keys::BATCH_WORKER_IDLE_US)
                .record_f64(total.saturating_sub(busy).as_secs_f64() * 1e6);
        }
        local
    };
    // The calling thread drains beside `workers − 1` scoped threads.
    let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let own = panic::catch_unwind(AssertUnwindSafe(drain));
        let mut buckets = vec![own.expect("batch worker panicked")];
        buckets.extend(handles.into_iter().map(|h| h.join().expect("batch worker panicked")));
        buckets
    });

    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for bucket in buckets {
        for (i, value) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some(value);
        }
    }
    slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
}

/// Cost of one model evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Wall-clock evaluation time (µs).
    pub eval_time_us: f64,
    /// Fixed-point function evaluations the bisection spent.
    pub solver_iterations: usize,
}

/// Aggregate of many [`EvalStats`] — what the reproduction binary
/// prints under each figure.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStatsSummary {
    /// Number of evaluations aggregated.
    pub points: usize,
    /// Sum of per-point wall-clock times (µs).
    pub total_eval_time_us: f64,
    /// Slowest single evaluation (µs).
    pub max_eval_time_us: f64,
    /// Sum of per-point solver iterations.
    pub total_solver_iterations: usize,
}

impl EvalStatsSummary {
    /// Folds one point into the summary.
    pub fn add(&mut self, stats: EvalStats) {
        self.points += 1;
        self.total_eval_time_us += stats.eval_time_us;
        self.max_eval_time_us = self.max_eval_time_us.max(stats.eval_time_us);
        self.total_solver_iterations += stats.solver_iterations;
    }

    /// Builds a summary from an iterator of per-point stats.
    pub fn collect<I: IntoIterator<Item = EvalStats>>(stats: I) -> Self {
        let mut out = Self::default();
        for s in stats {
            out.add(s);
        }
        out
    }

    /// Mean wall-clock time per evaluation (µs); 0 when empty.
    pub fn mean_eval_time_us(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.total_eval_time_us / self.points as f64
        }
    }

    /// Mean solver iterations per evaluation; 0 when empty.
    pub fn mean_solver_iterations(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.total_solver_iterations as f64 / self.points as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::kernel::evaluate_batch;
    use crate::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
    use hmcs_topology::transmission::Architecture;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..101).collect();
        for workers in [1, 2, 4, 7] {
            let out = par_map(&items, workers, |&i| i * i);
            assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[42u32], 8, |&x| x + 1), vec![43]);
    }

    #[test]
    fn invalid_pool_workers_values_are_rejected_not_ignored() {
        // Regression: resolved_workers() used to swallow these silently
        // and fall through to available_parallelism with no diagnostic.
        assert_eq!(parse_workers("0"), Err("must be at least 1"));
        assert_eq!(parse_workers("-2"), Err("not a positive integer"));
        assert_eq!(parse_workers("four"), Err("not a positive integer"));
        assert_eq!(parse_workers(""), Err("not a positive integer"));
        assert_eq!(parse_workers(" 3 "), Ok(3));
        assert_eq!(parse_workers("17"), Ok(17));
    }

    #[test]
    fn invalid_pool_workers_env_warns_once_through_metrics() {
        // Drive the same path workers_from_env() takes on a bad value,
        // without mutating process env (tests share the process).
        let raw = "four";
        let reason = parse_workers(raw).unwrap_err();
        let key = "test.batch.pool_workers_env";
        let msg = format!("ignoring {WORKERS_ENV}={raw:?} ({reason})");
        assert!(metrics::warn_once(key, msg.clone()));
        assert!(!metrics::warn_once(key, msg));
        let warning = metrics::global().snapshot().warnings.remove(key).unwrap();
        assert!(warning.contains("four"));
        assert!(warning.contains("not a positive integer"));
    }

    #[test]
    fn worker_resolution_prefers_explicit_count() {
        assert_eq!(BatchOptions::sequential().resolved_workers(), 1);
        assert_eq!(BatchOptions::with_workers(3).resolved_workers(), 3);
        assert_eq!(BatchOptions::with_workers(0).resolved_workers(), 1);
        assert!(BatchOptions::default().resolved_workers() >= 1);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        let configs: Vec<SystemConfig> = PAPER_CLUSTER_COUNTS
            .iter()
            .map(|&c| {
                SystemConfig::paper_preset(Scenario::Case1, c, Architecture::Blocking).unwrap()
            })
            .collect();
        let seq = evaluate_batch(&configs, 1);
        let par = evaluate_batch(&configs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            let (sr, _) = s.as_ref().unwrap();
            let (pr, _) = p.as_ref().unwrap();
            // PerformanceReport is PartialEq over every f64 it holds:
            // this is exact, bit-level equality, not a tolerance check.
            assert_eq!(sr, pr);
        }
    }

    #[test]
    fn evaluation_errors_stay_in_their_slot() {
        let good =
            SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::NonBlocking).unwrap();
        let bad = good.with_lambda(-1.0);
        let out = evaluate_batch(&[good, bad, good], 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
    }

    #[test]
    fn par_map_init_matches_sequential_order_and_results() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 5, 32] {
            let out = par_map_init(
                &items,
                workers,
                // Per-worker scratch buffer standing in for a reusable
                // simulator instance.
                Vec::<u64>::new,
                |scratch, &x| {
                    scratch.push(x);
                    x * x + 1
                },
            );
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_map_init_builds_one_state_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let out = par_map_init(&items, 4, || inits.fetch_add(1, Ordering::Relaxed), |_state, &x| x);
        assert_eq!(out, items);
        // One init per worker — never one per item.
        let states = inits.load(Ordering::Relaxed);
        assert!(states <= 4, "expected at most 4 states, got {states}");
    }

    #[test]
    fn stats_summary_aggregates() {
        let summary = EvalStatsSummary::collect([
            EvalStats { eval_time_us: 10.0, solver_iterations: 40 },
            EvalStats { eval_time_us: 30.0, solver_iterations: 60 },
        ]);
        assert_eq!(summary.points, 2);
        assert_eq!(summary.total_eval_time_us, 40.0);
        assert_eq!(summary.max_eval_time_us, 30.0);
        assert_eq!(summary.total_solver_iterations, 100);
        assert_eq!(summary.mean_eval_time_us(), 20.0);
        assert_eq!(summary.mean_solver_iterations(), 50.0);
    }
}

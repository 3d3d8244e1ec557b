//! Workspace-wide observability: lock-free counters, log-scale value
//! histograms, and a process-global registry.
//!
//! The paper's contribution is *performance analysis*; this module makes
//! the reproduction's own performance analysable. Every hot path —
//! the fixed-point solver, the QNA evaluator, the batch pool, the
//! simulators' replication driver — records cheap relaxed-atomic
//! counters and histograms here, and the `reproduce` binary snapshots
//! the registry into each run's manifest (`results/manifest_<id>.json`).
//!
//! Design constraints, in order:
//!
//! 1. **Instrumentation must never change results.** Nothing in this
//!    module feeds back into any computation; the batch property tests
//!    assert bit-identity between instrumented and uninstrumented
//!    sweeps.
//! 2. **Negligible overhead.** Recording is one or two relaxed atomic
//!    RMW operations; metric handles are `&'static` (registered once,
//!    then leaked), so steady-state recording takes no locks. The
//!    `batch_sweep` bench bounds the total overhead on the figure grid
//!    at ≤ 2%.
//! 3. **Always available.** Collection is on by default (it is cheap
//!    enough to leave on); [`set_enabled`] exists so tests can compare
//!    instrumented against uninstrumented runs. The `HMCS_METRICS`
//!    environment variable and the CLIs' `--metrics` flag control
//!    *printing*, not collection.
//!
//! ```
//! use hmcs_core::metrics;
//!
//! let made = metrics::counter("doc.widgets_made");
//! made.add(3);
//! metrics::histogram("doc.widget_mass_g").record(1500);
//! let snap = metrics::global().snapshot();
//! assert!(snap.counters["doc.widgets_made"] >= 3);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Well-known metric names recorded by the workspace's own crates.
///
/// Downstream crates (`hmcs-sim`, `hmcs-bench`) define their own keys;
/// these are the ones `hmcs-core` itself records.
pub mod keys {
    /// Counter: fixed-point solves completed by the base solver.
    pub const SOLVER_SOLVES: &str = "core.solver.solves";
    /// Histogram: bisection iterations per base-model solve.
    pub(crate) const SOLVER_ITERATIONS: &str = "core.solver.iterations";
    /// Histogram: bracket width as parts-per-million of the nominal λ
    /// (`hi/λ · 1e6` — 1e6 means the bracket spans the whole of λ).
    pub(crate) const SOLVER_BRACKET_PPM: &str = "core.solver.bracket_ppm_of_lambda";
    /// Counter: solves in which the near-saturation back-off activated.
    pub(crate) const SOLVER_BACKOFF_ACTIVATIONS: &str = "core.solver.backoff_activations";
    /// Histogram: geometric back-off steps taken when it activated.
    pub(crate) const SOLVER_BACKOFF_STEPS: &str = "core.solver.backoff_steps";
    /// Counter: QNA-refined solves completed.
    pub(crate) const QNA_SOLVES: &str = "core.qna.solves";
    /// Histogram: bisection iterations per QNA solve.
    pub(crate) const QNA_ITERATIONS: &str = "core.qna.iterations";
    /// Counter: QNA solves in which the back-off activated.
    pub(crate) const QNA_BACKOFF_ACTIVATIONS: &str = "core.qna.backoff_activations";
    /// Counter: batch invocations, of `par_map` and of the kernel's
    /// batch entry points alike.
    pub const BATCH_CALLS: &str = "core.batch.par_map_calls";
    /// Counter: total items evaluated across all batches.
    pub const BATCH_ITEMS: &str = "core.batch.items";
    /// Histogram: items claimed per worker per batch (drain balance; a
    /// kernel batch's worker claims one lane block).
    pub const BATCH_WORKER_ITEMS: &str = "core.batch.worker_items";
    /// Histogram: per-worker busy time per batch (µs, inside `f`).
    pub(crate) const BATCH_WORKER_BUSY_US: &str = "core.batch.worker_busy_us";
    /// Histogram: per-worker idle time per batch (µs, waiting on the
    /// claim cursor or for siblings to finish).
    pub(crate) const BATCH_WORKER_IDLE_US: &str = "core.batch.worker_idle_us";
    /// Histogram: wall-clock time of each model evaluation (µs).
    pub(crate) const BATCH_EVAL_TIME_US: &str = "core.batch.eval_time_us";
    /// Warning key: invalid `HMCS_POOL_WORKERS` environment value.
    pub(crate) const WARN_POOL_WORKERS_ENV: &str = "core.batch.pool_workers_env";
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when metric recording is on (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide. Collection is cheap
/// and on by default; this switch exists so tests can compare
/// instrumented runs against uninstrumented ones.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A lock-free monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` (no-op while recording is disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`ValueHistogram`]: bucket 0
/// holds exact zeros, bucket `i ≥ 1` holds `[2^(i−1), 2^i)`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram of non-negative integer values (durations in
/// µs, iteration counts, queue depths) with power-of-two buckets.
///
/// Exact sums, counts and maxima are kept alongside the buckets, so
/// means are exact even though the distribution is log-quantised.
#[derive(Debug)]
pub struct ValueHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for ValueHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        ValueHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (no-op while recording is disabled).
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let idx = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a non-negative float, rounded to the nearest integer;
    /// negative, NaN and infinite values are dropped.
    pub fn record_f64(&self, value: f64) {
        if value.is_finite() && value >= 0.0 {
            self.record(value.round().min(u64::MAX as f64) as u64);
        }
    }

    /// A consistent-enough point-in-time copy (relaxed reads; exact
    /// when no writer is concurrently recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then(|| {
                    let (lo, hi) =
                        if i == 0 { (0, 0) } else { (1u64 << (i - 1), (1u64 << (i - 1)) * 2 - 1) };
                    BucketCount { lo, hi, count }
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Thread-local accumulator for recording many values into one
/// [`ValueHistogram`] with a bounded number of atomic operations.
///
/// Recording into a shared histogram costs four atomic read-modify-
/// writes per value; a hot loop recording per item (the batched
/// kernel records one iteration count and one bracket ratio per lane)
/// pays that bus traffic hundreds of times per call. `HistogramBatch`
/// buckets values in plain integers and [`flush_into`] merges them
/// with one atomic per touched bucket plus three for the aggregates —
/// the destination ends in exactly the state the equivalent sequence
/// of [`ValueHistogram::record`] calls would produce.
///
/// [`flush_into`]: HistogramBatch::flush_into
#[derive(Debug)]
pub(crate) struct HistogramBatch {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramBatch {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        HistogramBatch { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Accumulates one value ([`ValueHistogram::record`] semantics,
    /// minus the enabled check, which [`flush_into`] applies once).
    ///
    /// [`flush_into`]: HistogramBatch::flush_into
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Accumulates a non-negative float with
    /// [`ValueHistogram::record_f64`]'s rounding and rejection rules.
    pub fn record_f64(&mut self, value: f64) {
        if value.is_finite() && value >= 0.0 {
            self.record(value.round().min(u64::MAX as f64) as u64);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges the accumulated values into `target` (no-op while
    /// recording is disabled, like the per-value path).
    pub(crate) fn flush_into(&self, target: &ValueHistogram) {
        if !enabled() || self.count == 0 {
            return;
        }
        for (local, shared) in self.buckets.iter().zip(&target.buckets) {
            if *local > 0 {
                shared.fetch_add(*local, Ordering::Relaxed);
            }
        }
        target.count.fetch_add(self.count, Ordering::Relaxed);
        target.sum.fetch_add(self.sum, Ordering::Relaxed);
        target.max.fetch_max(self.max, Ordering::Relaxed);
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`]: the closed value
/// range `[lo, hi]` and its observation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value the bucket covers.
    pub lo: u64,
    /// Largest value the bucket covers.
    pub hi: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Point-in-time copy of a [`ValueHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, in ascending value order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Exact mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Buckets a batch of values directly, bypassing the atomic
    /// histogram (and therefore the global enabled flag). Used by the
    /// run-manifest writer to histogram per-point statistics it
    /// already holds.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for v in values {
            let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
            buckets[idx] += 1;
            count += 1;
            sum += v;
            max = max.max(v);
        }
        let buckets = buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) =
                    if i == 0 { (0, 0) } else { (1u64 << (i - 1), (1u64 << (i - 1)) * 2 - 1) };
                BucketCount { lo, hi, count: c }
            })
            .collect();
        HistogramSnapshot { count, sum, max, buckets }
    }
}

/// The process-global metrics registry: named counters, histograms and
/// one-shot warnings. Obtain it with [`global`]; registration takes a
/// short lock, recording through the returned `&'static` handles is
/// lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static ValueHistogram>>,
    warnings: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it on
    /// first use. The handle is `'static`: cache it in hot loops.
    pub fn counter(&self, name: &str) -> &'static Counter {
        lookup_or_register(&self.counters, name)
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> &'static ValueHistogram {
        lookup_or_register(&self.histograms, name)
    }

    /// Records a warning once per process per `key`, printing it to
    /// stderr the first time. Returns `true` when this call was the
    /// first. Use for operator-error diagnostics (bad environment
    /// variables) that must be surfaced but must not spam.
    pub fn warn_once(&self, key: &str, message: impl Into<String>) -> bool {
        let mut map = self.warnings.lock().expect("metrics registry poisoned");
        if map.contains_key(key) {
            return false;
        }
        let message = message.into();
        eprintln!("warning [{key}]: {message}");
        map.insert(key.to_string(), message);
        true
    }

    /// Snapshots every registered metric and warning.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let warnings = self.warnings.lock().expect("metrics registry poisoned").clone();
        MetricsSnapshot { counters, histograms, warnings }
    }
}

/// The metric registered under `name` in `map`. Only a first
/// registration allocates (the key and the leaked metric); a repeat
/// lookup is a borrowed-key search.
fn lookup_or_register<M: Default>(
    map: &Mutex<BTreeMap<String, &'static M>>,
    name: &str,
) -> &'static M {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(&metric) = map.get(name) {
        return metric;
    }
    let metric: &'static M = Box::leak(Box::default());
    map.insert(name.to_string(), metric);
    metric
}

/// Point-in-time copy of the whole registry, ordered by metric name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// One-shot warnings by key.
    pub warnings: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as an aligned human-readable block (what
    /// the CLIs print under `--metrics` / `HMCS_METRICS=1`).
    pub fn render(&self) -> String {
        let mut out = String::from("metrics:\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  counter {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  hist    {name}: n={} mean={:.1} max={} sum={}",
                h.count,
                h.mean(),
                h.max,
                h.sum
            );
        }
        for (key, message) in &self.warnings {
            let _ = writeln!(out, "  warn    {key}: {message}");
        }
        if self.counters.is_empty() && self.histograms.is_empty() && self.warnings.is_empty() {
            out.push_str("  (empty)\n");
        }
        out
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Shorthand for `global().counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Shorthand for `global().histogram(name)`.
pub fn histogram(name: &str) -> &'static ValueHistogram {
    global().histogram(name)
}

/// Shorthand for `global().warn_once(key, message)`.
pub fn warn_once(key: &str, message: impl Into<String>) -> bool {
    global().warn_once(key, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_lookups_return_the_same_handle() {
        let registry = Registry::default();
        let counter = registry.counter("test.metrics.handle");
        assert!(std::ptr::eq(counter, registry.counter("test.metrics.handle")));
        assert!(!std::ptr::eq(counter, registry.counter("test.metrics.other")));
        let histogram = registry.histogram("test.metrics.handle");
        assert!(std::ptr::eq(histogram, registry.histogram("test.metrics.handle")));
        // Repeat lookups register nothing new.
        let snapshot = registry.snapshot();
        assert_eq!((snapshot.counters.len(), snapshot.histograms.len()), (2, 1));
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.metrics.counter_a");
        let before = c.get();
        c.add(5);
        c.incr();
        assert_eq!(c.get(), before + 6);
        let snap = global().snapshot();
        assert_eq!(snap.counters["test.metrics.counter_a"], c.get());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = ValueHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 2057);
        assert_eq!(snap.max, 1024);
        // 0 | [1,1] | [2,3]x2 | [4,7] | [512,1023] | [1024,2047]
        let find = |lo: u64| snap.buckets.iter().find(|b| b.lo == lo).map(|b| (b.hi, b.count));
        assert_eq!(find(0), Some((0, 1)));
        assert_eq!(find(1), Some((1, 1)));
        assert_eq!(find(2), Some((3, 2)));
        assert_eq!(find(4), Some((7, 1)));
        assert_eq!(find(512), Some((1023, 1)));
        assert_eq!(find(1024), Some((2047, 1)));
        assert!((snap.mean() - 2057.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn from_values_matches_atomic_recording() {
        let h = ValueHistogram::new();
        let values = [0u64, 1, 5, 9, 1024, 77, 77];
        for &v in &values {
            h.record(v);
        }
        assert_eq!(HistogramSnapshot::from_values(values), h.snapshot());
    }

    #[test]
    fn record_f64_drops_garbage() {
        let h = ValueHistogram::new();
        h.record_f64(2.4);
        h.record_f64(-1.0);
        h.record_f64(f64::NAN);
        h.record_f64(f64::INFINITY);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 2);
    }

    #[test]
    fn warn_once_fires_exactly_once() {
        assert!(warn_once("test.metrics.warn", "first"));
        assert!(!warn_once("test.metrics.warn", "second"));
        let warnings = global().snapshot().warnings;
        assert_eq!(warnings.get("test.metrics.warn").map(String::as_str), Some("first"));
    }

    #[test]
    fn render_is_human_readable() {
        counter("test.metrics.render").add(1);
        histogram("test.metrics.render_hist").record(7);
        let s = global().snapshot().render();
        assert!(s.contains("counter test.metrics.render ="));
        assert!(s.contains("hist    test.metrics.render_hist:"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = MetricsSnapshot::default();
        assert!(snap.render().contains("(empty)"));
    }
}

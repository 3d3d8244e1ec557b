//! Output statistics for simulation runs.
//!
//! * [`OnlineStats`] — numerically stable (Welford) running mean /
//!   variance / extrema for observation-based data such as message
//!   latencies (the paper's "sink module").
//! * `TimeWeighted` — time-weighted averages for state variables such
//!   as queue lengths.
//! * [`Histogram`] — fixed-width binning for latency distributions.
//! * [`confidence_interval`] — normal-approximation confidence
//!   half-widths for sample means.

/// Numerically stable running moments (Welford's algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]. (A derived `Default` would zero
    /// the `min`/`max` sentinels instead of using ±∞, making the first
    /// recorded observation compare against a phantom `0.0`.)
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    ///
    /// Returns the documented sentinel `0.0` with fewer than 2
    /// observations (the variance is undefined there, but a NaN would
    /// poison every downstream CI computation — a single-replication
    /// run must format as "± 0.0", not "± NaN").
    pub(crate) fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford
    /// combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted statistics for a piecewise-constant state variable
/// (e.g. a queue length).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimeWeighted {
    last_time: f64,
    last_value: f64,
    area: f64,
    start_time: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an accumulator; the first `update` sets the initial time
    /// and value.
    pub fn new() -> Self {
        TimeWeighted { last_time: 0.0, last_value: 0.0, area: 0.0, start_time: 0.0, started: false }
    }

    /// Records that the variable changed to `value` at `time`
    /// (non-decreasing times required).
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous update.
    pub fn update(&mut self, time: f64, value: f64) {
        if !self.started {
            self.started = true;
            self.start_time = time;
        } else {
            assert!(time >= self.last_time, "time must be non-decreasing");
            self.area += (time - self.last_time) * self.last_value;
        }
        self.last_time = time;
        self.last_value = value;
    }

    /// Time-weighted mean over `[start, until]`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last update.
    pub(crate) fn mean_until(&self, until: f64) -> f64 {
        if !self.started || until <= self.start_time {
            return 0.0;
        }
        assert!(until >= self.last_time, "until precedes the last update");
        let area = self.area + (until - self.last_time) * self.last_value;
        area / (until - self.start_time)
    }
}

/// A fixed-width histogram over `[low, high)` with overflow/underflow
/// buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning
    /// `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high` and `bins ≥ 1`.
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low < high, "invalid histogram range");
        assert!(bins >= 1, "histogram needs at least one bin");
        Histogram {
            low,
            width: (high - low) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.low {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.low) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// `[low, high)` range of bin `i`.
    pub(crate) fn bin_range(&self, i: usize) -> (f64, f64) {
        let lo = self.low + i as f64 * self.width;
        (lo, lo + self.width)
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Approximate quantile from bin midpoints (`None` when empty or `q`
    /// outside `[0,1]`). Underflow/overflow observations clamp to the
    /// range ends.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.total() == 0 {
            return None;
        }
        let target = (q * self.total() as f64).ceil().max(1.0) as u64;
        let mut acc = self.underflow;
        if acc >= target {
            return Some(self.low);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                let (lo, hi) = self.bin_range(i);
                return Some(0.5 * (lo + hi));
            }
        }
        Some(self.low + self.width * self.bins.len() as f64)
    }
}

/// Two-sided normal-approximation confidence half-width for a sample
/// mean: `z · s/√n`. Supported levels: 0.90, 0.95, 0.99.
///
/// With fewer than 2 observations the half-width is the documented
/// sentinel `0.0` (via `OnlineStats::std_error`), never NaN, so a
/// single-replication run still formats a finite `± 0.0` interval.
///
/// # Panics
///
/// Panics on an unsupported level.
pub fn confidence_interval(stats: &OnlineStats, level: f64) -> f64 {
    let z = match level {
        l if (l - 0.90).abs() < 1e-9 => 1.6449,
        l if (l - 0.95).abs() < 1e-9 => 1.9600,
        l if (l - 0.99).abs() < 1e-9 => 2.5758,
        _ => panic!("unsupported confidence level {level}; use 0.90, 0.95 or 0.99"),
    };
    z * stats.std_error()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new_including_extrema_sentinels() {
        // Regression: the derived Default zeroed min/max, so
        // OnlineStats::default() + record(5.0) reported min = Some(0.0).
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut s = OnlineStats::default();
        s.record(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
        let mut neg = OnlineStats::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), Some(-3.0));
    }

    #[test]
    fn single_observation_ci_is_finite_zero() {
        // A 1-replication run must report "± 0.0", never NaN: the
        // count < 2 sentinel has to hold through std_error and every
        // supported confidence level.
        let mut s = OnlineStats::new();
        s.record(42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        for level in [0.90, 0.95, 0.99] {
            let half = confidence_interval(&s, level);
            assert!(half.is_finite(), "CI at {level} must be finite, got {half}");
            assert_eq!(half, 0.0);
        }
    }

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn time_weighted_mean() {
        let mut t = TimeWeighted::new();
        t.update(0.0, 0.0); // empty queue
        t.update(10.0, 2.0); // 2 customers from t=10
        t.update(30.0, 1.0); // 1 from t=30
                             // Mean over [0, 40]: (10*0 + 20*2 + 10*1)/40 = 1.25.
        assert!((t.mean_until(40.0) - 1.25).abs() < 1e-12);
        assert_eq!(t.last_value, 1.0);
    }

    #[test]
    fn time_weighted_before_start_is_zero() {
        let t = TimeWeighted::new();
        assert_eq!(t.mean_until(100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_weighted_rejects_time_travel() {
        let mut t = TimeWeighted::new();
        t.update(10.0, 1.0);
        t.update(5.0, 2.0);
    }

    #[test]
    fn histogram_bins_and_tails() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins[0], 2); // 0.0, 1.9
        assert_eq!(h.bins[1], 1); // 2.0
        assert_eq!(h.bins[4], 1); // 9.99
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_range(1), (2.0, 4.0));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 95.0);
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None, "empty");
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn confidence_interval_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        let mut seed = 123456789u64;
        for i in 0..10_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (seed >> 33) as f64 / (u32::MAX as f64);
            if i < 100 {
                small.record(x);
            }
            large.record(x);
        }
        assert!(confidence_interval(&large, 0.95) < confidence_interval(&small, 0.95));
        assert!(confidence_interval(&large, 0.99) > confidence_interval(&large, 0.95));
        assert!(confidence_interval(&large, 0.90) < confidence_interval(&large, 0.95));
    }

    #[test]
    #[should_panic(expected = "unsupported confidence level")]
    fn confidence_interval_validates_level() {
        confidence_interval(&OnlineStats::new(), 0.42);
    }
}

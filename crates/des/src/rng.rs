//! Random-number streams and sampling distributions.
//!
//! The paper's simulators need exponential inter-arrival times
//! (assumption 1), uniformly distributed destinations (assumption 3) and
//! exponential service times (§5.2). Reproducibility requirements:
//!
//! * a single master seed determines the whole experiment;
//! * every component (each processor, each service centre) gets its own
//!   **stream** derived from the master seed and a stream id, so adding
//!   instrumentation or reordering component construction does not
//!   perturb unrelated streams.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 — used only to expand `(master_seed, stream_id)` into the
/// 64-bit seed for a stream. Standard constants from Steele et al.; the
/// same function as `hmcs_topology::splitmix::mix64`, kept private here
/// because this crate has no workspace dependency to import it through.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seedable random stream with the sampling methods the simulators
/// need.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// Creates the stream identified by `stream_id` under `master_seed`.
    pub fn new(master_seed: u64, stream_id: u64) -> Self {
        let mixed = splitmix64(master_seed ^ splitmix64(stream_id));
        RngStream { rng: SmallRng::seed_from_u64(mixed) }
    }

    /// A uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// An exponential sample with the given rate (mean `1/rate`), via
    /// inversion. Uses `1 − U` so a zero uniform cannot produce `∞`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "exponential rate must be positive");
        -(1.0 - self.uniform()).ln() / rate
    }

    /// An exponential sample specified by its mean.
    #[inline]
    pub fn exponential_mean(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        -(1.0 - self.uniform()).ln() * mean
    }

    /// An Erlang-k sample with the given overall mean (sum of `k`
    /// exponential phases).
    pub fn erlang(&mut self, mean: f64, phases: u32) -> f64 {
        assert!(phases >= 1, "Erlang needs at least one phase");
        let phase_mean = mean / phases as f64;
        (0..phases).map(|_| self.exponential_mean(phase_mean)).sum()
    }

    /// A two-phase hyper-exponential sample with the given mean and
    /// squared coefficient of variation ≥ 1 (balanced-means fit).
    pub fn hyper_exponential(&mut self, mean: f64, scv: f64) -> f64 {
        assert!(scv >= 1.0, "hyper-exponential SCV must be >= 1");
        // Balanced-means two-phase fit: p1 = (1 + sqrt((scv-1)/(scv+1)))/2.
        let p1 = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let (p, m) = if self.uniform() < p1 {
            (p1, mean / (2.0 * p1))
        } else {
            (1.0 - p1, mean / (2.0 * (1.0 - p1)))
        };
        debug_assert!(p > 0.0);
        self.exponential_mean(m)
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn uniform_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_below needs a positive bound");
        self.rng.gen_range(0..n)
    }

    /// A uniformly random element of `0..n` **excluding** `skip` — the
    /// paper's uniform destination draw (assumption 3: "any node in the
    /// system ... with uniform distribution", destinations differ from
    /// the source).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `skip >= n`.
    #[inline]
    pub fn uniform_excluding(&mut self, n: usize, skip: usize) -> usize {
        assert!(n >= 2, "need at least two values to exclude one");
        assert!(skip < n, "skip out of range");
        let draw = self.uniform_below(n - 1);
        if draw >= skip {
            draw + 1
        } else {
            draw
        }
    }

    /// A Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }

    /// The next raw 64 bits of the stream (one underlying draw).
    #[inline]
    fn next_raw(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// A precomputed uniform-integer sampler over `[0, n)`.
///
/// [`RngStream::uniform_below`] recomputes its rejection zone —
/// `u64::MAX - (u64::MAX % span)`, an integer division — on every
/// call. The simulators draw destinations from the same one or two
/// ranges millions of times per run, so this caches the `(span, zone)`
/// pair once at model-build time. A draw consumes the same underlying
/// 64-bit stream values and applies the same rejection rule, so the
/// samples are **bit-identical** to the per-call path.
#[derive(Debug, Clone, Copy)]
pub struct UniformInt {
    span: u64,
    zone: u64,
}

impl UniformInt {
    /// Builds the sampler for `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "uniform_below needs a positive bound");
        let span = n as u64;
        UniformInt { span, zone: u64::MAX - (u64::MAX % span) }
    }

    /// A uniform draw from `[0, n)` on `stream` — bit-identical to
    /// `stream.uniform_below(n)`.
    #[inline]
    pub fn sample(&self, stream: &mut RngStream) -> usize {
        // Unbiased rejection sampling, mirroring `gen_range` exactly.
        loop {
            let v = stream.next_raw();
            if v < self.zone {
                return (v % self.span) as usize;
            }
        }
    }

    /// A uniform draw from `0..=n` **excluding** `skip` — bit-identical
    /// to `stream.uniform_excluding(n + 1, skip)` for a sampler built
    /// with `UniformInt::new(n)`.
    #[inline]
    pub fn sample_excluding(&self, stream: &mut RngStream, skip: usize) -> usize {
        let draw = self.sample(stream);
        if draw >= skip {
            draw + 1
        } else {
            draw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = RngStream::new(42, 7);
        let mut b = RngStream::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = RngStream::new(42, 0);
        let mut b = RngStream::new(42, 1);
        let same = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::new(1, 0);
        let mut b = RngStream::new(2, 0);
        let same = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_is_right() {
        let mut r = RngStream::new(7, 0);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "sample mean {mean}, want 4");
    }

    #[test]
    fn exponential_is_memoryless_in_distribution() {
        // P(X > 2m) should be about P(X > m)^2.
        let mut r = RngStream::new(9, 3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.exponential_mean(1.0)).collect();
        let p1 = samples.iter().filter(|&&x| x > 1.0).count() as f64 / n as f64;
        let p2 = samples.iter().filter(|&&x| x > 2.0).count() as f64 / n as f64;
        assert!((p2 - p1 * p1).abs() < 0.01);
    }

    #[test]
    fn erlang_reduces_variance() {
        let mut r = RngStream::new(11, 0);
        let n = 100_000;
        let sample_var = |samples: &[f64]| {
            let m = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64
        };
        let e1: Vec<f64> = (0..n).map(|_| r.erlang(1.0, 1)).collect();
        let e4: Vec<f64> = (0..n).map(|_| r.erlang(1.0, 4)).collect();
        let (v1, v4) = (sample_var(&e1), sample_var(&e4));
        // SCV: 1 vs 0.25.
        assert!((v1 - 1.0).abs() < 0.05);
        assert!((v4 - 0.25).abs() < 0.02);
    }

    #[test]
    fn hyper_exponential_matches_moments() {
        let mut r = RngStream::new(13, 0);
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| r.hyper_exponential(2.0, 4.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let scv = var / (mean * mean);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((scv - 4.0).abs() < 0.3, "scv {scv}");
    }

    #[test]
    fn uniform_below_covers_range() {
        let mut r = RngStream::new(3, 3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.uniform_below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_excluding_never_returns_skip_and_is_uniform() {
        let mut r = RngStream::new(5, 5);
        let n = 8;
        let skip = 3;
        let mut counts = vec![0u32; n];
        let draws = 70_000;
        for _ in 0..draws {
            let v = r.uniform_excluding(n, skip);
            assert_ne!(v, skip);
            counts[v] += 1;
        }
        let expect = draws as f64 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate() {
            if i == skip {
                assert_eq!(c, 0);
            } else {
                assert!((c as f64 - expect).abs() < 0.05 * expect, "value {i}: {c}");
            }
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = RngStream::new(17, 0);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn uniform_int_is_bit_identical_to_uniform_below() {
        for n in [1usize, 2, 3, 7, 10, 255, 1000, 65_537] {
            let sampler = UniformInt::new(n);
            let mut a = RngStream::new(99, 4);
            let mut b = RngStream::new(99, 4);
            for _ in 0..2_000 {
                assert_eq!(sampler.sample(&mut a), b.uniform_below(n), "n = {n}");
            }
        }
    }

    #[test]
    fn uniform_int_excluding_is_bit_identical() {
        let n = 12;
        let sampler = UniformInt::new(n - 1);
        let mut a = RngStream::new(123, 8);
        let mut b = RngStream::new(123, 8);
        for skip in 0..n {
            for _ in 0..500 {
                assert_eq!(
                    sampler.sample_excluding(&mut a, skip),
                    b.uniform_excluding(n, skip),
                    "skip = {skip}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_int_rejects_zero_bound() {
        UniformInt::new(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        RngStream::new(0, 0).exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "skip out of range")]
    fn uniform_excluding_validates_skip() {
        RngStream::new(0, 0).uniform_excluding(4, 4);
    }
}

//! Empirical latency-matrix topology source.
//!
//! The paper fixes an idealised two-level hierarchy (every intra-cluster
//! hop costs the ICN1 technology, every inter-cluster hop the
//! ECN1/ICN2 technologies). Real deployments are observed the other way
//! around: what you *measure* is node-to-node latency, and the cluster
//! structure has to be inferred from it. This module provides the
//! matrix side of that inversion:
//!
//! * [`LatencySource`] — the sampling trait the identification pass
//!   (`hmcs_core::identify`) and the flow simulator's per-pair hop
//!   modulation (`hmcs_sim::flow::HopDelays`) consume. Identification
//!   needs only pairwise samples, so a caller with measured latencies
//!   implements it over whatever store holds them.
//! * [`SyntheticSpec`] / [`SyntheticMatrix`] — a seeded WAN/LAN
//!   generator that plants a known cluster partition with clamp-normal
//!   intra- and inter-cluster latency bands. The synthetic source is
//!   *implicit*: per-pair values are recomputed on demand from a
//!   SplitMix64 hash of `(seed, pair)`, so a 100k-node topology costs
//!   O(n) memory.
//!
//! All randomness is deterministic: the same spec always produces the
//! same matrix on every platform (the sampler uses only `ln`, `sqrt`
//! and `cos`, which are correctly-rounded-enough for reproducible
//! `f64` streams in practice, and the goldens compare with relative
//! tolerance).

use crate::splitmix::{mix64, SplitMix64};
use std::error::Error;
use std::fmt;

/// Typed failure modes of synthetic-source construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Fewer than two nodes (0×0 and 1×1 matrices carry no pairwise
    /// structure to identify).
    TooSmall {
        /// Number of nodes found.
        nodes: usize,
    },
    /// An invalid generator parameter.
    InvalidSpec {
        /// Name of the offending parameter.
        name: &'static str,
        /// Constraint that was violated.
        reason: &'static str,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::TooSmall { nodes } => {
                write!(f, "latency matrix needs at least 2 nodes, got {nodes}")
            }
            MatrixError::InvalidSpec { name, reason } => {
                write!(f, "invalid generator parameter {name}: {reason}")
            }
        }
    }
}

impl Error for MatrixError {}

/// A source of pairwise one-way latencies for `n` nodes.
///
/// Implementations must be symmetric (`latency_us(a, b) ==
/// latency_us(b, a)`) and defined for every off-diagonal pair; the
/// diagonal is unspecified and never queried by consumers.
pub trait LatencySource {
    /// Number of nodes in the topology.
    fn nodes(&self) -> usize;
    /// One-way latency between two distinct nodes, in microseconds.
    fn latency_us(&self, a: usize, b: usize) -> f64;
}

// ---------------------------------------------------------------------------
// Seeded sampling primitives.
// ---------------------------------------------------------------------------

/// Maps a u64 to the open unit interval (0, 1).
#[inline]
fn unit_open(v: u64) -> f64 {
    ((v >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0) // 2^-53
}

/// A clamp-normal latency band: samples are `N(mean, std)` clamped to
/// `mean ± CLAMP_SIGMAS·std`, mirroring the clamped ping-latency
/// distributions used by measured-matrix simulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBand {
    /// Band centre, µs.
    pub mean_us: f64,
    /// Band standard deviation before clamping, µs.
    pub std_us: f64,
}

/// Clamp width in standard deviations: samples outside
/// `mean ± 2.5σ` are clipped to the boundary.
pub(crate) const CLAMP_SIGMAS: f64 = 2.5;

impl LatencyBand {
    /// Creates a band after validating `mean > 0`, `0 ≤ std ≤ mean/3`
    /// (the std ceiling keeps the clamped band strictly positive).
    pub fn new(mean_us: f64, std_us: f64) -> Result<Self, MatrixError> {
        if !mean_us.is_finite() || mean_us <= 0.0 {
            return Err(MatrixError::InvalidSpec {
                name: "mean_us",
                reason: "must be finite and positive",
            });
        }
        if !std_us.is_finite() || std_us < 0.0 || std_us > mean_us / 3.0 {
            return Err(MatrixError::InvalidSpec {
                name: "std_us",
                reason: "must be finite, non-negative and at most mean/3",
            });
        }
        Ok(LatencyBand { mean_us, std_us })
    }

    /// Lowest value the clamped band can produce.
    pub(crate) fn min_us(&self) -> f64 {
        self.mean_us - CLAMP_SIGMAS * self.std_us
    }

    /// Highest value the clamped band can produce.
    pub(crate) fn max_us(&self) -> f64 {
        self.mean_us + CLAMP_SIGMAS * self.std_us
    }

    /// Deterministic clamp-normal sample from a 64-bit pair key.
    #[inline]
    fn sample(&self, key: u64) -> f64 {
        if self.std_us == 0.0 {
            return self.mean_us;
        }
        let u1 = unit_open(mix64(key));
        let u2 = unit_open(mix64(key ^ 0xA5A5_A5A5_A5A5_A5A5));
        // Box–Muller; one deviate per pair is enough.
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mean_us + self.std_us * z).clamp(self.min_us(), self.max_us())
    }
}

// ---------------------------------------------------------------------------
// Synthetic WAN/LAN generator
// ---------------------------------------------------------------------------

/// Specification of a synthetic WAN/LAN latency matrix with a planted
/// cluster partition.
///
/// Node-pair latencies are drawn from [`LatencyBand`]s: the `intra` band
/// for pairs inside the same planted cluster (LAN), the `inter` band for
/// cross-cluster pairs (WAN). With `shuffle` the node indices are
/// permuted by a seeded Fisher–Yates pass so planted clusters are not
/// contiguous index ranges (as in a real measured matrix).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Master seed; all per-pair values and the shuffle derive from it.
    pub seed: u64,
    /// Planted cluster sizes (cluster `c` gets `cluster_sizes[c]` nodes).
    pub cluster_sizes: Vec<usize>,
    /// Intra-cluster (LAN) latency band.
    pub intra: LatencyBand,
    /// Inter-cluster (WAN) latency band.
    pub inter: LatencyBand,
    /// Whether to permute node indices (hide the planted block layout).
    pub shuffle: bool,
}

impl SyntheticSpec {
    /// Uniform spec: `clusters` planted clusters of `nodes_per_cluster`
    /// nodes each.
    pub fn uniform(
        clusters: usize,
        nodes_per_cluster: usize,
        intra: LatencyBand,
        inter: LatencyBand,
        seed: u64,
    ) -> Self {
        SyntheticSpec {
            seed,
            cluster_sizes: vec![nodes_per_cluster; clusters],
            intra,
            inter,
            shuffle: true,
        }
    }

    /// Skewed spec: cluster sizes ramp linearly from
    /// `base·(1-skew)` to `base·(1+skew)` (minimum 1 node), modelling
    /// unequal site sizes. `skew` must lie in `[0, 1)`.
    pub fn skewed(
        clusters: usize,
        base_size: usize,
        skew: f64,
        intra: LatencyBand,
        inter: LatencyBand,
        seed: u64,
    ) -> Result<Self, MatrixError> {
        if !(0.0..1.0).contains(&skew) {
            return Err(MatrixError::InvalidSpec { name: "skew", reason: "must lie in [0, 1)" });
        }
        let sizes: Vec<usize> = (0..clusters)
            .map(|c| {
                let t = if clusters > 1 {
                    2.0 * (c as f64) / ((clusters - 1) as f64) - 1.0
                } else {
                    0.0
                };
                (((base_size as f64) * (1.0 + skew * t)).round() as usize).max(1)
            })
            .collect();
        Ok(SyntheticSpec { seed, cluster_sizes: sizes, intra, inter, shuffle: true })
    }

    /// Total nodes across all planted clusters.
    pub fn total_nodes(&self) -> usize {
        self.cluster_sizes.iter().sum()
    }

    /// Validates the spec: at least one cluster, every cluster
    /// non-empty, at least two nodes in total, and the WAN band centred
    /// strictly above the LAN band.
    pub fn validate(&self) -> Result<(), MatrixError> {
        if self.cluster_sizes.is_empty() || self.cluster_sizes.contains(&0) {
            return Err(MatrixError::InvalidSpec {
                name: "cluster_sizes",
                reason: "need at least one cluster and no empty clusters",
            });
        }
        if self.total_nodes() < 2 {
            return Err(MatrixError::TooSmall { nodes: self.total_nodes() });
        }
        if self.inter.mean_us <= self.intra.mean_us {
            return Err(MatrixError::InvalidSpec {
                name: "inter.mean_us",
                reason: "WAN band must be centred above the LAN band",
            });
        }
        Ok(())
    }

    /// Builds the implicit (O(n)-memory) source with its planted
    /// partition.
    pub fn source(&self) -> Result<SyntheticMatrix, MatrixError> {
        self.validate()?;
        let n = self.total_nodes();
        // Block layout: cluster c owns a contiguous run of labels...
        let mut cluster_of: Vec<u32> = Vec::with_capacity(n);
        for (c, &size) in self.cluster_sizes.iter().enumerate() {
            cluster_of.extend(std::iter::repeat_n(c as u32, size));
        }
        // ...optionally hidden by a seeded Fisher–Yates permutation of
        // the node indices.
        if self.shuffle {
            let mut rng = SplitMix64::new(mix64(self.seed ^ 0x5AFF_1E00));
            for i in (1..n).rev() {
                let j = rng.below(i + 1);
                cluster_of.swap(i, j);
            }
        }
        Ok(SyntheticMatrix { seed: self.seed, cluster_of, intra: self.intra, inter: self.inter })
    }
}

/// The implicit synthetic source: per-pair latencies recomputed on
/// demand from the seed, with O(n) memory (the shuffled
/// cluster-assignment vector).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticMatrix {
    seed: u64,
    cluster_of: Vec<u32>,
    intra: LatencyBand,
    inter: LatencyBand,
}

impl SyntheticMatrix {
    /// Planted cluster index of a node.
    pub fn cluster_of(&self, node: usize) -> usize {
        self.cluster_of[node] as usize
    }

    /// The planted partition in canonical form: each cluster's members
    /// sorted ascending, clusters ordered by their smallest member.
    pub fn partition(&self) -> Vec<Vec<usize>> {
        let clusters = self.cluster_of.iter().map(|&c| c as usize).max().unwrap_or(0) + 1;
        let mut part: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        for (node, &c) in self.cluster_of.iter().enumerate() {
            part[c as usize].push(node);
        }
        // Members are pushed in ascending node order already; order the
        // clusters by first member for canonical comparison.
        part.sort_by_key(|members| members.first().copied().unwrap_or(usize::MAX));
        part
    }
}

impl LatencySource for SyntheticMatrix {
    fn nodes(&self) -> usize {
        self.cluster_of.len()
    }

    #[inline]
    fn latency_us(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a != b, "diagonal latency is undefined");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let band =
            if self.cluster_of[lo] == self.cluster_of[hi] { &self.intra } else { &self.inter };
        let key = mix64(self.seed) ^ (((lo as u64) << 32) | (hi as u64));
        band.sample(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bands() -> (LatencyBand, LatencyBand) {
        (LatencyBand::new(50.0, 4.0).unwrap(), LatencyBand::new(400.0, 30.0).unwrap())
    }

    #[test]
    fn generator_is_deterministic_and_symmetric() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::uniform(4, 8, intra, inter, 2005);
        let a = spec.source().unwrap();
        let b = spec.source().unwrap();
        assert_eq!(a, b);
        for i in 0..a.nodes() {
            for j in 0..a.nodes() {
                if i != j {
                    assert_eq!(a.latency_us(i, j), a.latency_us(j, i));
                    assert!(a.latency_us(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn samples_stay_inside_clamped_bands() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::uniform(4, 16, intra, inter, 11);
        let src = spec.source().unwrap();
        for i in 0..src.nodes() {
            for j in (i + 1)..src.nodes() {
                let v = src.latency_us(i, j);
                let band = if src.cluster_of(i) == src.cluster_of(j) { intra } else { inter };
                assert!(v >= band.min_us() && v <= band.max_us(), "{v} outside band");
            }
        }
    }

    #[test]
    fn partition_is_canonical_and_covers_all_nodes() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::skewed(5, 10, 0.4, intra, inter, 9).unwrap();
        let src = spec.source().unwrap();
        let part = src.partition();
        assert_eq!(part.len(), 5);
        let mut seen = vec![false; src.nodes()];
        assert_eq!(part[0][0], 0, "first cluster starts at the smallest member");
        for members in &part {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
            for &m in members {
                assert!(!seen[m]);
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn skewed_sizes_ramp_and_respect_minimum() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::skewed(4, 10, 0.5, intra, inter, 1).unwrap();
        assert_eq!(spec.cluster_sizes, vec![5, 8, 12, 15]);
        let tiny = SyntheticSpec::skewed(3, 1, 0.9, intra, inter, 1).unwrap();
        assert!(tiny.cluster_sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn shuffle_permutes_but_preserves_sizes() {
        let (intra, inter) = bands();
        let mut spec = SyntheticSpec::uniform(4, 8, intra, inter, 3);
        spec.shuffle = false;
        let plain = spec.source().unwrap();
        assert_eq!(plain.cluster_of(0), 0);
        assert_eq!(plain.cluster_of(31), 3);
        spec.shuffle = true;
        let shuffled = spec.source().unwrap();
        let mut sizes = [0usize; 4];
        for node in 0..32 {
            sizes[shuffled.cluster_of(node)] += 1;
        }
        assert_eq!(sizes, [8, 8, 8, 8]);
        assert_ne!(
            (0..32).map(|i| plain.cluster_of(i)).collect::<Vec<_>>(),
            (0..32).map(|i| shuffled.cluster_of(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generator_rejects_bad_specs() {
        let (intra, inter) = bands();
        let empty = SyntheticSpec { seed: 0, cluster_sizes: vec![], intra, inter, shuffle: false };
        assert!(matches!(empty.source(), Err(MatrixError::InvalidSpec { .. })));
        let inverted = SyntheticSpec::uniform(2, 4, inter, intra, 0);
        assert!(matches!(inverted.source(), Err(MatrixError::InvalidSpec { .. })));
        let one_node =
            SyntheticSpec { seed: 0, cluster_sizes: vec![1], intra, inter, shuffle: false };
        assert!(matches!(one_node.source(), Err(MatrixError::TooSmall { nodes: 1 })));
        assert!(matches!(
            LatencyBand::new(10.0, 5.0),
            Err(MatrixError::InvalidSpec { name: "std_us", .. })
        ));
        let huge = SyntheticSpec::uniform(64, 64, intra, inter, 0);
        assert!(huge.source().is_ok(), "implicit source has no dense limit");
    }
}

//! Empirical latency-matrix topology source.
//!
//! The paper fixes an idealised two-level hierarchy (every intra-cluster
//! hop costs the ICN1 technology, every inter-cluster hop the
//! ECN1/ICN2 technologies). Real deployments are observed the other way
//! around: what you *measure* is an `n × n` node-to-node latency matrix,
//! and the cluster structure has to be inferred from it. This module
//! provides the matrix side of that inversion:
//!
//! * [`LatencyMatrix`] — a dense, validated, symmetric matrix of one-way
//!   small-message latencies (µs), importable from strict CSV.
//! * [`SyntheticSpec`] / [`SyntheticMatrix`] — a seeded WAN/LAN
//!   generator that plants a known cluster partition with clamp-normal
//!   intra- and inter-cluster latency bands. The synthetic source is
//!   *implicit*: per-pair values are recomputed on demand from a
//!   SplitMix64 hash of `(seed, pair)`, so a 100k-node topology costs
//!   O(n) memory while agreeing bit-exactly with the dense
//!   materialisation [`SyntheticSpec::generate`].
//! * [`LatencySource`] — the sampling trait the identification pass
//!   (`hmcs_core::identify`) and the flow simulator's per-pair hop
//!   modulation (`hmcs_sim::flow::HopDelays`) consume, unifying
//!   dense and implicit sources.
//!
//! All randomness is deterministic: the same spec always produces the
//! same matrix on every platform (the sampler uses only `ln`, `sqrt`
//! and `cos`, which are correctly-rounded-enough for reproducible
//! `f64` streams in practice, and the goldens compare with relative
//! tolerance).

use crate::splitmix::{mix64, SplitMix64};
use std::error::Error;
use std::fmt;

/// Upper bound on nodes for dense materialisation (`generate`,
/// `from_rows`, CSV import): a dense `f64` matrix at this size is
/// 32 MiB. Larger systems must use the implicit [`SyntheticMatrix`].
pub(crate) const MAX_DENSE_NODES: usize = 2048;

/// Relative tolerance used by [`LatencyMatrix::parse_csv`] for the
/// symmetry check: `|a_ij - a_ji|` may not exceed this fraction of the
/// pair mean. Measured matrices are rarely exactly symmetric (forward
/// and reverse probes race), so a strict-but-nonzero default is used.
pub(crate) const DEFAULT_SYMMETRY_TOLERANCE: f64 = 0.05;

/// Typed failure modes of matrix construction and CSV import.
///
/// Every variant carries enough context (1-based row/column) to point
/// at the offending cell; hostile inputs must map to one of these, never
/// to a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Fewer than two nodes (0×0 and 1×1 matrices carry no pairwise
    /// structure to identify).
    TooSmall {
        /// Number of nodes found.
        nodes: usize,
    },
    /// More nodes than `MAX_DENSE_NODES` in a dense construction.
    TooLarge {
        /// Number of nodes requested.
        nodes: usize,
        /// The dense limit.
        limit: usize,
    },
    /// A row with a different cell count than the first row.
    RaggedRow {
        /// 1-based row number.
        row: usize,
        /// Cells expected (matrix order).
        expected: usize,
        /// Cells found.
        got: usize,
    },
    /// A cell that failed to parse as a number.
    BadCell {
        /// 1-based row number.
        row: usize,
        /// 1-based column number.
        col: usize,
    },
    /// A NaN or infinite cell.
    NonFinite {
        /// 1-based row number.
        row: usize,
        /// 1-based column number.
        col: usize,
    },
    /// An off-diagonal cell that is not strictly positive, or a
    /// negative diagonal cell.
    NonPositive {
        /// 1-based row number.
        row: usize,
        /// 1-based column number.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// A pair whose forward and reverse latencies disagree beyond the
    /// symmetry tolerance.
    Asymmetric {
        /// 1-based row of the pair.
        row: usize,
        /// 1-based column of the pair.
        col: usize,
        /// Relative disagreement `|a_ij - a_ji| / mean`.
        relative_error: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
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
            MatrixError::TooLarge { nodes, limit } => write!(
                f,
                "dense latency matrix limited to {limit} nodes, got {nodes} \
                 (use the implicit synthetic source for larger systems)"
            ),
            MatrixError::RaggedRow { row, expected, got } => {
                write!(f, "row {row} has {got} cells, expected {expected}")
            }
            MatrixError::BadCell { row, col } => {
                write!(f, "cell ({row},{col}) is not a number")
            }
            MatrixError::NonFinite { row, col } => {
                write!(f, "cell ({row},{col}) is NaN or infinite")
            }
            MatrixError::NonPositive { row, col, value } => write!(
                f,
                "cell ({row},{col}) = {value} must be positive off the \
                 diagonal and non-negative on it"
            ),
            MatrixError::Asymmetric { row, col, relative_error, tolerance } => write!(
                f,
                "cells ({row},{col})/({col},{row}) disagree by {:.1}% \
                 (tolerance {:.1}%)",
                relative_error * 100.0,
                tolerance * 100.0
            ),
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
// Dense matrix
// ---------------------------------------------------------------------------

/// A dense, validated, symmetric latency matrix.
///
/// Stored row-major; ingestion symmetrises each pair to the mean of the
/// forward and reverse measurements after the tolerance check, so
/// [`LatencySource::latency_us`] is exactly symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyMatrix {
    n: usize,
    cells: Vec<f64>,
}

impl LatencyMatrix {
    /// Builds a matrix from explicit rows, validating shape, finiteness,
    /// positivity and symmetry (see [`MatrixError`]).
    pub fn from_rows(rows: &[Vec<f64>], symmetry_tolerance: f64) -> Result<Self, MatrixError> {
        let n = rows.len();
        if n < 2 {
            return Err(MatrixError::TooSmall { nodes: n });
        }
        if n > MAX_DENSE_NODES {
            return Err(MatrixError::TooLarge { nodes: n, limit: MAX_DENSE_NODES });
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(MatrixError::RaggedRow { row: i + 1, expected: n, got: row.len() });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(MatrixError::NonFinite { row: i + 1, col: j + 1 });
                }
                let bad = if i == j { v < 0.0 } else { v <= 0.0 };
                if bad {
                    return Err(MatrixError::NonPositive { row: i + 1, col: j + 1, value: v });
                }
            }
        }
        let mut cells = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let fwd = rows[i][j];
                let rev = rows[j][i];
                let mean = 0.5 * (fwd + rev);
                let rel = (fwd - rev).abs() / mean;
                if rel > symmetry_tolerance {
                    return Err(MatrixError::Asymmetric {
                        row: i + 1,
                        col: j + 1,
                        relative_error: rel,
                        tolerance: symmetry_tolerance,
                    });
                }
                cells[i * n + j] = mean;
                cells[j * n + i] = mean;
            }
        }
        Ok(LatencyMatrix { n, cells })
    }

    /// Parses strict CSV with the default symmetry tolerance
    /// (`DEFAULT_SYMMETRY_TOLERANCE`).
    pub fn parse_csv(text: &str) -> Result<Self, MatrixError> {
        Self::parse_csv_with(text, DEFAULT_SYMMETRY_TOLERANCE)
    }

    /// Parses strict CSV: one row per line, comma-separated numeric
    /// cells, no header, blank lines ignored. Every structural defect
    /// maps to a typed [`MatrixError`].
    pub(crate) fn parse_csv_with(text: &str, symmetry_tolerance: f64) -> Result<Self, MatrixError> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut expected: Option<usize> = None;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let row_no = rows.len() + 1;
            let mut row = Vec::new();
            for (c, tok) in line.split(',').enumerate() {
                let v: f64 = tok
                    .trim()
                    .parse()
                    .map_err(|_| MatrixError::BadCell { row: row_no, col: c + 1 })?;
                row.push(v);
            }
            if let Some(width) = expected {
                if row.len() != width {
                    return Err(MatrixError::RaggedRow {
                        row: row_no,
                        expected: width,
                        got: row.len(),
                    });
                }
            } else {
                expected = Some(row.len());
            }
            rows.push(row);
        }
        // A non-square sheet (row count != column count) reads as a
        // ragged matrix: the first short/long dimension is reported.
        if let Some(width) = expected {
            if rows.len() != width && rows.len() >= 2 {
                return Err(MatrixError::RaggedRow {
                    row: rows.len(),
                    expected: rows.len(),
                    got: width,
                });
            }
        }
        Self::from_rows(&rows, symmetry_tolerance)
    }

    /// Cell accessor (symmetrised value; diagonal is 0 for generated
    /// matrices, the imported value's pair mean otherwise).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        self.cells[i * self.n + j]
    }
}

impl LatencySource for LatencyMatrix {
    fn nodes(&self) -> usize {
        self.n
    }

    fn latency_us(&self, a: usize, b: usize) -> f64 {
        self.get(a, b)
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

    /// Materialises the dense matrix (small systems only, see
    /// `MAX_DENSE_NODES`); bit-identical to sampling the implicit
    /// source cell by cell.
    pub fn generate(&self) -> Result<LatencyMatrix, MatrixError> {
        let src = self.source()?;
        let n = src.nodes();
        if n > MAX_DENSE_NODES {
            return Err(MatrixError::TooLarge { nodes: n, limit: MAX_DENSE_NODES });
        }
        let mut cells = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = src.latency_us(i, j);
                cells[i * n + j] = v;
                cells[j * n + i] = v;
            }
        }
        Ok(LatencyMatrix { n, cells })
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

    /// Renders the matrix as CSV (row-major, `%.6` precision), the
    /// inverse of [`LatencyMatrix::parse_csv`] up to rounding.
    fn to_csv(m: &LatencyMatrix) -> String {
        let mut out = String::with_capacity(m.n * m.n * 8);
        for i in 0..m.n {
            for j in 0..m.n {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{:.6}", m.cells[i * m.n + j]));
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn generator_is_deterministic_and_symmetric() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::uniform(4, 8, intra, inter, 2005);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        for i in 0..a.nodes() {
            for j in 0..a.nodes() {
                if i != j {
                    assert_eq!(a.get(i, j), a.get(j, i));
                    assert!(a.get(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn dense_and_implicit_sources_agree_bit_exactly() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::uniform(3, 5, intra, inter, 77);
        let dense = spec.generate().unwrap();
        let implicit = spec.source().unwrap();
        for i in 0..dense.nodes() {
            for j in 0..dense.nodes() {
                if i != j {
                    assert_eq!(dense.get(i, j), implicit.latency_us(i, j));
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
        assert!(matches!(huge.generate(), Err(MatrixError::TooLarge { .. })));
        assert!(huge.source().is_ok(), "implicit source has no dense limit");
    }

    // ----- satellite: hostile CSV inputs must fail typed, never panic -----

    #[test]
    fn csv_rejects_empty_and_single_cell() {
        assert!(matches!(LatencyMatrix::parse_csv(""), Err(MatrixError::TooSmall { nodes: 0 })));
        assert!(matches!(
            LatencyMatrix::parse_csv("0.0\n"),
            Err(MatrixError::TooSmall { nodes: 1 })
        ));
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let err = LatencyMatrix::parse_csv("0,1,2\n1,0\n2,1,0\n").unwrap_err();
        assert_eq!(err, MatrixError::RaggedRow { row: 2, expected: 3, got: 2 });
        // Square-width but short row count is also ragged.
        let err = LatencyMatrix::parse_csv("0,1,2\n1,0,3\n").unwrap_err();
        assert!(matches!(err, MatrixError::RaggedRow { .. }));
    }

    #[test]
    fn csv_rejects_nan_inf_and_garbage_cells() {
        let err = LatencyMatrix::parse_csv("0,NaN\n1,0\n").unwrap_err();
        assert_eq!(err, MatrixError::NonFinite { row: 1, col: 2 });
        let err = LatencyMatrix::parse_csv("0,inf\n1,0\n").unwrap_err();
        assert_eq!(err, MatrixError::NonFinite { row: 1, col: 2 });
        let err = LatencyMatrix::parse_csv("0,1\nfoo,0\n").unwrap_err();
        assert_eq!(err, MatrixError::BadCell { row: 2, col: 1 });
    }

    #[test]
    fn csv_rejects_negative_and_zero_off_diagonal() {
        let err = LatencyMatrix::parse_csv("0,-5\n-5,0\n").unwrap_err();
        assert!(matches!(err, MatrixError::NonPositive { row: 1, col: 2, .. }));
        let err = LatencyMatrix::parse_csv("0,0\n0,0\n").unwrap_err();
        assert!(matches!(err, MatrixError::NonPositive { .. }));
        let err = LatencyMatrix::parse_csv("-1,5\n5,0\n").unwrap_err();
        assert!(matches!(err, MatrixError::NonPositive { row: 1, col: 1, .. }));
    }

    #[test]
    fn csv_rejects_asymmetry_beyond_tolerance() {
        let err = LatencyMatrix::parse_csv("0,100\n150,0\n").unwrap_err();
        assert!(matches!(err, MatrixError::Asymmetric { row: 1, col: 2, .. }));
        // Within tolerance: accepted and symmetrised to the pair mean.
        let m = LatencyMatrix::parse_csv("0,100\n104,0\n").unwrap();
        assert_eq!(m.get(0, 1), 102.0);
        assert_eq!(m.get(1, 0), 102.0);
    }

    #[test]
    fn csv_round_trips_generated_matrices() {
        let (intra, inter) = bands();
        let spec = SyntheticSpec::uniform(3, 4, intra, inter, 42);
        let dense = spec.generate().unwrap();
        let reparsed = LatencyMatrix::parse_csv(&to_csv(&dense)).unwrap();
        for i in 0..dense.nodes() {
            for j in 0..dense.nodes() {
                if i != j {
                    assert!((dense.get(i, j) - reparsed.get(i, j)).abs() < 1e-5);
                }
            }
        }
    }
}

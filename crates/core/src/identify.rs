//! Cluster identification: latency matrix → HMCS `(C, N₀)` model.
//!
//! The paper assumes the cluster structure is *known*. Real deployments
//! expose only a measured node-to-node latency matrix; this module
//! inverts the paper's setup, in the spirit of the
//! logical-homogeneous-clusters methodology: partition the matrix into
//! logical clusters by a latency-gap threshold, fit the paper's
//! `(C, N₀, ICN1, ECN1/ICN2)` parameters from the identified bands, and
//! report a residual quantifying how far the matrix is from the ideal
//! two-level HMCS the analytical solver assumes.
//!
//! ## Threshold rule
//!
//! Off-diagonal latencies are sampled (all pairs for small systems, a
//! seeded deterministic subsample above [`IdentifyOptions::exhaustive_limit`])
//! and sorted. The split threshold is placed in the **largest relative
//! gap** between consecutive distinct values: if
//! `max_i v[i+1]/v[i] ≥ min_gap_ratio`, the threshold is the geometric
//! midpoint `√(v[i]·v[i+1])`; otherwise the matrix is declared a single
//! cluster. A two-band (LAN/WAN) matrix produces exactly one dominant
//! gap, so the rule is parameter-light and scale-free.
//!
//! ## Clustering pass
//!
//! Nodes are scanned in index order and greedily merged: node `i` joins
//! the first existing cluster where the majority of (up to
//! [`IdentifyOptions::reference_members`]) reference members lie within
//! the threshold, else it founds a new cluster. For a matrix whose
//! intra band lies entirely below the threshold and inter band entirely
//! above it, this is exact (every member agrees), runs in `O(n·C)`
//! latency probes, and never materialises the matrix — 100k-node
//! implicit sources identify in milliseconds.
//!
//! ## Residual
//!
//! [`Residual`] reports the relative median-absolute-deviation of each
//! identified band, the coefficient of variation of cluster sizes, and
//! their sum as a single *non-HMCS score*: 0 for an ideal equal-size,
//! zero-jitter two-level system, growing as heterogeneity makes the
//! fitted `(C, N₀)` model a worse description of the measured matrix.

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::scenario::{Scenario, PAPER_LAMBDA_PER_US};
use hmcs_topology::latmatrix::LatencySource;
use hmcs_topology::splitmix::SplitMix64;
use hmcs_topology::transmission::Architecture;
use hmcs_topology::NetworkTechnology;

/// Tuning knobs of the identification pass. `Default` matches the
/// goldens and the round-trip fuzz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentifyOptions {
    /// Minimum ratio between consecutive sorted latencies for a gap to
    /// count as a band split (below it the matrix is one cluster).
    pub min_gap_ratio: f64,
    /// Number of off-diagonal pairs sampled for the threshold and the
    /// band medians when the system exceeds `exhaustive_limit`.
    pub sample_pairs: usize,
    /// Node count up to which *all* pairs are used instead of a sample.
    pub exhaustive_limit: usize,
    /// Members per existing cluster probed when assigning a node.
    pub reference_members: usize,
    /// Seed of the deterministic pair subsample.
    pub sample_seed: u64,
}

impl Default for IdentifyOptions {
    fn default() -> Self {
        IdentifyOptions {
            min_gap_ratio: 1.8,
            sample_pairs: 4096,
            exhaustive_limit: 512,
            reference_members: 3,
            sample_seed: 0x1DE7_71F1,
        }
    }
}

/// How non-HMCS the measured matrix is (0 = ideal two-level system).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residual {
    /// Relative median absolute deviation of the intra band
    /// (`median(|x−med|)/med`).
    pub intra_rel_mad: f64,
    /// Relative median absolute deviation of the inter band; 0 when
    /// there is no inter band (single cluster).
    pub inter_rel_mad: f64,
    /// Coefficient of variation of identified cluster sizes.
    pub size_cv: f64,
    /// `intra_rel_mad + inter_rel_mad + size_cv` — the non-HMCS score.
    pub score: f64,
}

/// Result of identifying a latency matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifiedSystem {
    /// Clusters in canonical form: members ascending, clusters ordered
    /// by smallest member.
    pub partition: Vec<Vec<usize>>,
    /// The gap threshold (µs); `None` when no qualifying gap was found
    /// and the matrix collapsed to a single cluster.
    pub threshold_us: Option<f64>,
    /// Median of the identified intra-cluster band (µs).
    pub intra_median_us: f64,
    /// Median of the identified inter-cluster band (µs); `None` for a
    /// single cluster.
    pub inter_median_us: Option<f64>,
    /// Separation `inter_median / intra_median`; `None` for a single
    /// cluster.
    pub separation: Option<f64>,
    /// The non-HMCS residual report.
    pub residual: Residual,
}

impl IdentifiedSystem {
    /// Number of identified clusters.
    pub fn clusters(&self) -> usize {
        self.partition.len()
    }

    /// Total nodes covered by the partition.
    pub fn total_nodes(&self) -> usize {
        self.partition.iter().map(Vec::len).sum()
    }
}

/// Workload parameters for [`fitted_config`]; the fit supplies the
/// topology side, these supply the paper's workload side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Message size in bytes.
    pub message_bytes: u64,
    /// Per-node message generation rate (messages/µs).
    pub lambda_per_us: f64,
    /// Interconnect architecture assumed for the fitted switches.
    pub architecture: Architecture,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            message_bytes: 1024,
            lambda_per_us: PAPER_LAMBDA_PER_US,
            architecture: Architecture::NonBlocking,
        }
    }
}

/// Static names of the fitted effective technologies
/// (`NetworkTechnology::name` is `&'static str`).
pub(crate) const IDENTIFIED_INTRA_NAME: &str = "identified intra";
/// See [`IDENTIFIED_INTRA_NAME`].
pub(crate) const IDENTIFIED_INTER_NAME: &str = "identified inter";

/// Relative latency slack within which a fitted band snaps to a known
/// preset technology (keeping its measured bandwidth) instead of
/// becoming a custom effective technology.
pub(crate) const PRESET_SNAP_TOLERANCE: f64 = 0.05;

/// Identifies the logical cluster structure of a latency source.
///
/// # Errors
///
/// `InvalidConfig` when the source has fewer than two nodes or a
/// nonsensical option (zero samples / references).
pub fn identify<S: LatencySource + ?Sized>(
    source: &S,
    options: &IdentifyOptions,
) -> Result<IdentifiedSystem, ModelError> {
    let n = source.nodes();
    if n < 2 {
        return Err(ModelError::InvalidConfig {
            name: "nodes",
            reason: "identification needs at least two nodes",
        });
    }
    if options.sample_pairs == 0 || options.reference_members == 0 {
        return Err(ModelError::InvalidConfig {
            name: "options",
            reason: "sample_pairs and reference_members must be positive",
        });
    }

    // 1. Sampled latency spectrum → gap threshold.
    let mut sample = sample_latencies(source, options);
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let threshold = gap_threshold(&sample, options.min_gap_ratio);

    // 2. Greedy leader clustering under the threshold.
    let partition = match threshold {
        Some(t) => cluster_by_threshold(source, t, options.reference_members),
        None => vec![(0..n).collect::<Vec<usize>>()],
    };

    // 3. Band medians + residual from the sampled spectrum, classified
    //    by the identified partition.
    let mut cluster_of = vec![0u32; n];
    for (c, members) in partition.iter().enumerate() {
        for &m in members {
            cluster_of[m] = c as u32;
        }
    }
    let (mut intra, mut inter) = (Vec::new(), Vec::new());
    for_sampled_pairs(n, options, |i, j| {
        let v = source.latency_us(i, j);
        if cluster_of[i] == cluster_of[j] {
            intra.push(v);
        } else {
            inter.push(v);
        }
    });
    // All-singleton partitions have no intra pairs; fall back to the
    // smallest sampled latency so the fit stays defined.
    let intra_median =
        if intra.is_empty() { sample.first().copied().unwrap_or(1.0) } else { median(&mut intra) };
    let inter_median =
        if partition.len() > 1 && !inter.is_empty() { Some(median(&mut inter)) } else { None };

    let intra_rel_mad = if intra.is_empty() { 0.0 } else { rel_mad(&mut intra, intra_median) };
    let inter_rel_mad = match inter_median {
        Some(m) if !inter.is_empty() => rel_mad(&mut inter, m),
        _ => 0.0,
    };
    let size_cv = size_cv(&partition);
    let residual = Residual {
        intra_rel_mad,
        inter_rel_mad,
        size_cv,
        score: intra_rel_mad + inter_rel_mad + size_cv,
    };

    Ok(IdentifiedSystem {
        partition,
        threshold_us: threshold,
        intra_median_us: intra_median,
        inter_median_us: inter_median,
        separation: inter_median.map(|m| m / intra_median),
        residual,
    })
}

/// Fits the paper's `SystemConfig` from an identified system: `C` =
/// identified clusters, `N₀` = rounded mean cluster size, ICN1 from the
/// intra band median, ECN1/ICN2 from the inter band median (each
/// snapping to a preset technology within `PRESET_SNAP_TOLERANCE`,
/// otherwise becoming a custom effective technology carrying the
/// nearest preset's bandwidth).
pub fn fitted_config(
    identified: &IdentifiedSystem,
    options: &FitOptions,
) -> Result<SystemConfig, ModelError> {
    let clusters = identified.clusters();
    if clusters == 0 {
        return Err(ModelError::InvalidConfig {
            name: "partition",
            reason: "identified system has no clusters",
        });
    }
    let total = identified.total_nodes();
    let n0 = ((total as f64 / clusters as f64).round() as usize).max(1);
    let mut cfg = SystemConfig::new(
        clusters,
        n0,
        options.message_bytes,
        options.lambda_per_us,
        Scenario::Case1,
        options.architecture,
    )?;
    cfg.icn1 = effective_technology(identified.intra_median_us, IDENTIFIED_INTRA_NAME)?;
    if let Some(inter) = identified.inter_median_us {
        let tech = effective_technology(inter, IDENTIFIED_INTER_NAME)?;
        cfg.ecn1 = tech;
        cfg.icn2 = tech;
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Maps a measured band median onto an effective technology.
fn effective_technology(
    median_us: f64,
    name: &'static str,
) -> Result<NetworkTechnology, ModelError> {
    let nearest = NetworkTechnology::PRESETS
        .iter()
        .min_by(|a, b| {
            let da = (a.latency_us - median_us).abs();
            let db = (b.latency_us - median_us).abs();
            da.partial_cmp(&db).expect("finite preset latencies")
        })
        .expect("PRESETS is non-empty");
    if (nearest.latency_us - median_us).abs() <= PRESET_SNAP_TOLERANCE * nearest.latency_us {
        return Ok(*nearest);
    }
    Ok(NetworkTechnology::new(name, median_us, nearest.bandwidth_mb_s)?)
}

/// Collects the sampled off-diagonal latency spectrum.
fn sample_latencies<S: LatencySource + ?Sized>(source: &S, options: &IdentifyOptions) -> Vec<f64> {
    let mut out = Vec::new();
    for_sampled_pairs(source.nodes(), options, |i, j| out.push(source.latency_us(i, j)));
    out
}

/// Visits either every off-diagonal pair (small systems) or a seeded
/// deterministic subsample of `sample_pairs` pairs.
fn for_sampled_pairs<F: FnMut(usize, usize)>(n: usize, options: &IdentifyOptions, mut f: F) {
    if n <= options.exhaustive_limit {
        for i in 0..n {
            for j in (i + 1)..n {
                f(i, j);
            }
        }
        return;
    }
    let mut rng = SplitMix64::new(options.sample_seed);
    let mut drawn = 0usize;
    while drawn < options.sample_pairs {
        let i = rng.below(n);
        let j = rng.below(n);
        if i == j {
            continue;
        }
        f(i.min(j), i.max(j));
        drawn += 1;
    }
}

/// The largest-relative-gap threshold over a sorted latency sample.
fn gap_threshold(sorted: &[f64], min_gap_ratio: f64) -> Option<f64> {
    let mut best_ratio = 1.0;
    let mut best_split = None;
    for w in sorted.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo <= 0.0 || hi <= lo {
            continue;
        }
        let ratio = hi / lo;
        if ratio > best_ratio {
            best_ratio = ratio;
            best_split = Some((lo * hi).sqrt());
        }
    }
    if best_ratio >= min_gap_ratio {
        best_split
    } else {
        None
    }
}

/// Greedy leader clustering: `O(n · C · reference_members)` probes.
fn cluster_by_threshold<S: LatencySource + ?Sized>(
    source: &S,
    threshold: f64,
    reference_members: usize,
) -> Vec<Vec<usize>> {
    let n = source.nodes();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for node in 0..n {
        let mut joined = false;
        for cluster in clusters.iter_mut() {
            let refs = cluster.len().min(reference_members);
            let below = cluster[..refs]
                .iter()
                .filter(|&&m| source.latency_us(node, m) <= threshold)
                .count();
            if 2 * below > refs {
                cluster.push(node);
                joined = true;
                break;
            }
        }
        if !joined {
            clusters.push(vec![node]);
        }
    }
    // Scan order is index order, so members are ascending and clusters
    // are already ordered by smallest member — canonical by
    // construction.
    clusters
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Relative median absolute deviation around a given centre.
fn rel_mad(values: &mut [f64], centre: f64) -> f64 {
    let mut devs: Vec<f64> = values.iter().map(|v| (v - centre).abs()).collect();
    median(&mut devs) / centre
}

fn size_cv(partition: &[Vec<usize>]) -> f64 {
    let c = partition.len();
    if c <= 1 {
        return 0.0;
    }
    let mean = partition.iter().map(Vec::len).sum::<usize>() as f64 / c as f64;
    let var = partition
        .iter()
        .map(|m| {
            let d = m.len() as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / c as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_topology::latmatrix::{LatencyBand, SyntheticSpec};

    fn spec(clusters: usize, size: usize, seed: u64) -> SyntheticSpec {
        SyntheticSpec::uniform(
            clusters,
            size,
            LatencyBand::new(50.0, 3.0).unwrap(),
            LatencyBand::new(400.0, 24.0).unwrap(),
            seed,
        )
    }

    #[test]
    fn recovers_planted_partition_exactly() {
        let spec = spec(4, 16, 2005);
        let src = spec.source().unwrap();
        let id = identify(&src, &IdentifyOptions::default()).unwrap();
        assert_eq!(id.partition, src.partition());
        assert!(id.threshold_us.is_some());
        let sep = id.separation.unwrap();
        assert!((6.0..11.0).contains(&sep), "separation {sep}");
    }

    #[test]
    fn single_band_matrix_collapses_to_one_cluster() {
        let band = LatencyBand::new(100.0, 5.0).unwrap();
        // Both bands identical means there is no gap to find; build via
        // struct literal because validate() rejects inter == intra.
        let spec = SyntheticSpec {
            seed: 7,
            cluster_sizes: vec![8, 8],
            intra: band,
            inter: LatencyBand::new(100.0000001, 5.0).unwrap(),
            shuffle: true,
        };
        let src = spec.source().unwrap();
        let id = identify(&src, &IdentifyOptions::default()).unwrap();
        assert_eq!(id.clusters(), 1);
        assert!(id.threshold_us.is_none());
        assert!(id.inter_median_us.is_none());
        assert_eq!(id.residual.size_cv, 0.0);
    }

    #[test]
    fn residual_grows_with_jitter_and_skew() {
        let tight = spec(4, 16, 1).source().unwrap();
        let loose = SyntheticSpec::skewed(
            4,
            16,
            0.5,
            LatencyBand::new(50.0, 12.0).unwrap(),
            LatencyBand::new(400.0, 90.0).unwrap(),
            1,
        )
        .unwrap()
        .source()
        .unwrap();
        let tight_id = identify(&tight, &IdentifyOptions::default()).unwrap();
        let loose_id = identify(&loose, &IdentifyOptions::default()).unwrap();
        assert!(loose_id.residual.score > tight_id.residual.score);
        assert!(loose_id.residual.size_cv > 0.0);
    }

    #[test]
    fn fit_produces_valid_config_with_band_medians() {
        let spec = spec(8, 32, 3);
        let src = spec.source().unwrap();
        let id = identify(&src, &IdentifyOptions::default()).unwrap();
        let cfg = fitted_config(&id, &FitOptions::default()).unwrap();
        assert_eq!(cfg.clusters, 8);
        assert_eq!(cfg.nodes_per_cluster, 32);
        // Intra median ≈ 50 µs → snaps to the Fast Ethernet preset.
        assert_eq!(cfg.icn1, NetworkTechnology::FAST_ETHERNET);
        // Inter median ≈ 400 µs → custom effective technology.
        assert_eq!(cfg.ecn1.name, IDENTIFIED_INTER_NAME);
        assert!((cfg.ecn1.latency_us - 400.0).abs() < 20.0);
        assert_eq!(cfg.ecn1, cfg.icn2);
        cfg.validate().unwrap();
    }

    #[test]
    fn identification_scales_implicitly_past_the_dense_limit() {
        let spec = spec(16, 625, 2005); // 10,000 nodes, implicit only
        let src = spec.source().unwrap();
        let id = identify(&src, &IdentifyOptions::default()).unwrap();
        assert_eq!(id.partition, src.partition());
        assert_eq!(id.total_nodes(), 10_000);
    }

    /// A caller's own measured matrix: identification needs nothing but
    /// pairwise samples, so any symmetric store can implement the trait.
    struct Measured(Vec<Vec<f64>>);

    impl LatencySource for Measured {
        fn nodes(&self) -> usize {
            self.0.len()
        }
        fn latency_us(&self, a: usize, b: usize) -> f64 {
            self.0[a][b]
        }
    }

    #[test]
    fn identifies_a_caller_supplied_matrix() {
        // Two planted clusters, interleaved by index: {0, 2, 4, 6} on one
        // LAN, {1, 3, 5} on another, a WAN between them.
        let n = 7;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let jitter = ((i + j) % 3) as f64;
                        match (i == j, i % 2 == j % 2) {
                            (true, _) => 0.0,
                            (false, true) => 48.0 + jitter,
                            (false, false) => 395.0 + 4.0 * jitter,
                        }
                    })
                    .collect()
            })
            .collect();
        let matrix = Measured(rows);
        let id = identify(&matrix, &IdentifyOptions::default()).unwrap();
        assert_eq!(id.partition, vec![vec![0, 2, 4, 6], vec![1, 3, 5]]);
        let threshold = id.threshold_us.unwrap();
        assert!(50.0 < threshold && threshold < 395.0, "threshold {threshold}");
        assert_eq!(id.total_nodes(), n);
    }

    #[test]
    fn rejects_tiny_sources_and_bad_options() {
        let spec = spec(2, 4, 5);
        let src = spec.source().unwrap();
        let opts = IdentifyOptions { sample_pairs: 0, ..Default::default() };
        assert!(identify(&src, &opts).is_err());

        struct OneNode;
        impl LatencySource for OneNode {
            fn nodes(&self) -> usize {
                1
            }
            fn latency_us(&self, _: usize, _: usize) -> f64 {
                unreachable!()
            }
        }
        assert!(identify(&OneNode, &IdentifyOptions::default()).is_err());
    }
}

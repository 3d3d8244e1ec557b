//! Seeded round-trip fuzzing of the cluster-identification pass.
//!
//! [`crate::differential`] fuzzes *analysis vs simulation*; this module
//! fuzzes *generate vs identify*: a synthetic latency matrix with a
//! planted partition is handed to [`hmcs_core::identify`], which must
//! recover that partition bit-exactly. Cases are sampled inside the
//! identifier's guarantee region — band separation and jitter such
//! that the worst within-band latency ratio stays below the gap
//! threshold while the between-band ratio stays above it — so any
//! failure is a genuine identifier bug, not an ambiguous matrix.
//!
//! Failures are greedily shrunk (fewer clusters, smaller clusters, no
//! skew, less jitter, no shuffle) and rendered as a ready-to-paste
//! regression test. A test walks the other way: starting from a
//! recoverable case it degrades separation and inflates jitter until
//! identification diverges, mapping where the guarantee region actually
//! ends.

use hmcs_core::error::ModelError;
use hmcs_core::identify::{self, IdentifyOptions};
use hmcs_des::rng::RngStream;
use hmcs_topology::latmatrix::{LatencyBand, SyntheticSpec};
use std::fmt::Write as _;

/// Centre of the intra-cluster band every sampled case uses (µs).
pub(crate) const INTRA_MEAN_US: f64 = 50.0;

/// One sampled identification round-trip case.
///
/// `separation` is the inter/intra mean ratio and `jitter` the
/// std/mean ratio of both bands. With the default
/// [`IdentifyOptions::min_gap_ratio`] of 1.8 and clamped-normal
/// sampling at ±2.5σ, any `separation ≥ 4` and `jitter ≤ 0.08` is
/// guaranteed recoverable: the within-band extreme ratio is at most
/// `(1+2.5j)/(1−2.5j) ≤ 1.5` and the worst between-band ratio at least
/// `4·(1−2.5j)/(1+2.5j) ≥ 2.6`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentCaseSpec {
    /// Planted cluster count.
    pub clusters: usize,
    /// Base cluster size (exact when `skew` is 0).
    pub base_size: usize,
    /// Linear size skew in [0, 1): sizes ramp `base·(1±skew)`.
    pub skew: f64,
    /// Inter-band mean as a multiple of the intra-band mean.
    pub separation: f64,
    /// Band std/mean ratio (both bands).
    pub jitter: f64,
    /// Whether node labels are shuffled (hides the block structure).
    pub shuffle: bool,
    /// Generator seed.
    pub seed: u64,
}

impl IdentCaseSpec {
    /// Materialises the synthetic generator spec.
    pub fn build(&self) -> Result<SyntheticSpec, ModelError> {
        let intra = LatencyBand::new(INTRA_MEAN_US, self.jitter * INTRA_MEAN_US)?;
        let inter_mean = INTRA_MEAN_US * self.separation;
        let inter = LatencyBand::new(inter_mean, self.jitter * inter_mean)?;
        let mut spec = SyntheticSpec::skewed(
            self.clusters,
            self.base_size,
            self.skew,
            intra,
            inter,
            self.seed,
        )?;
        spec.shuffle = self.shuffle;
        Ok(spec)
    }
}

/// A case whose identified partition differs from the planted one,
/// after shrinking.
#[derive(Debug, Clone)]
pub struct IdentFailure {
    /// Index of the originally failing case.
    pub case_index: u32,
    /// The shrunk, still-failing spec.
    pub spec: IdentCaseSpec,
    /// Planted cluster count.
    pub planted_clusters: usize,
    /// Identified cluster count.
    pub identified_clusters: usize,
}

/// Summary of one identification fuzz run.
#[derive(Debug, Clone)]
pub struct IdentFuzzReport {
    /// Seed the run was keyed by.
    pub seed: u64,
    /// Cases evaluated.
    pub cases_run: u32,
    /// Total nodes identified across all cases.
    pub total_nodes: usize,
    /// Shrunk failures (empty on a healthy identifier).
    pub failures: Vec<IdentFailure>,
}

/// Options for [`run_identfuzz`].
#[derive(Debug, Clone, Copy)]
pub struct IdentFuzzOptions {
    /// Number of random cases to check.
    pub cases: u32,
    /// Master seed; case `i` derives its own RNG stream from it.
    pub seed: u64,
}

impl Default for IdentFuzzOptions {
    fn default() -> Self {
        IdentFuzzOptions { cases: 200, seed: 2005 }
    }
}

/// Draws case `index` of `seed` from the guarantee region —
/// deterministic and independent of every other case.
pub fn sample_case(seed: u64, index: u32) -> IdentCaseSpec {
    let mut rng = RngStream::new(seed, u64::from(index));
    IdentCaseSpec {
        clusters: 2 + rng.uniform_below(7),
        base_size: 4 + rng.uniform_below(29),
        skew: 0.5 * rng.uniform(),
        separation: 4.0 + 8.0 * rng.uniform(),
        jitter: 0.08 * rng.uniform(),
        shuffle: rng.uniform() < 0.5,
        // Decorrelate the generator's own noise from the case sampler.
        seed: seed ^ (u64::from(index) << 32) ^ 0xF1D0,
    }
}

/// Checks one case: `Ok(None)` means the planted partition was
/// recovered bit-exactly.
pub(crate) fn check_case(spec: &IdentCaseSpec) -> Result<Option<(usize, usize)>, ModelError> {
    let synth = spec.build()?;
    let source = synth.source()?;
    let planted = source.partition();
    let identified = identify::identify(&source, &IdentifyOptions::default())?;
    Ok(if identified.partition == planted {
        None
    } else {
        Some((planted.len(), identified.partition.len()))
    })
}

/// Candidate one-step simplifications of a failing spec, in preference
/// order (structurally smaller first). `separation` is never changed:
/// widening it would mask the failure, narrowing it would leave the
/// guarantee region.
fn shrink_candidates(spec: &IdentCaseSpec) -> Vec<IdentCaseSpec> {
    let mut out = Vec::new();
    if spec.clusters > 2 {
        out.push(IdentCaseSpec { clusters: spec.clusters - 1, ..*spec });
    }
    if spec.base_size > 4 {
        out.push(IdentCaseSpec { base_size: (spec.base_size / 2).max(4), ..*spec });
    }
    if spec.skew > 0.0 {
        out.push(IdentCaseSpec { skew: 0.0, ..*spec });
    }
    if spec.jitter > 0.005 {
        out.push(IdentCaseSpec { jitter: spec.jitter * 0.5, ..*spec });
    }
    if spec.shuffle {
        out.push(IdentCaseSpec { shuffle: false, ..*spec });
    }
    out
}

/// Greedily shrinks a failing spec: repeatedly takes the first
/// simplification that still fails, until none does.
fn shrink(spec: IdentCaseSpec, counts: (usize, usize)) -> (IdentCaseSpec, (usize, usize)) {
    let mut current = (spec, counts);
    for _ in 0..64 {
        let mut advanced = false;
        for candidate in shrink_candidates(&current.0) {
            if let Ok(Some(counts)) = check_case(&candidate) {
                current = (candidate, counts);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    current
}

/// Renders a ready-to-paste regression test for a shrunk failure.
pub fn regression_snippet(seed: u64, f: &IdentFailure) -> String {
    let spec = &f.spec;
    let mut out = String::new();
    let _ = writeln!(out, "#[test]");
    let _ = writeln!(
        out,
        "fn identfuzz_regression_c{}_b{}_s{}() {{",
        spec.clusters, spec.base_size, spec.seed
    );
    let _ = writeln!(
        out,
        "    // Found by `reproduce identfuzz --seed {seed}` (case {}): planted {} \
         cluster(s), identified {}.",
        f.case_index, f.planted_clusters, f.identified_clusters
    );
    let _ = writeln!(
        out,
        "    let spec = IdentCaseSpec {{ clusters: {}, base_size: {}, skew: {:?}, \
         separation: {:?}, jitter: {:?}, shuffle: {}, seed: {} }};",
        spec.clusters,
        spec.base_size,
        spec.skew,
        spec.separation,
        spec.jitter,
        spec.shuffle,
        spec.seed
    );
    let _ = writeln!(
        out,
        "    assert_eq!(check_case(&spec).unwrap(), None, \"identification must round-trip\");"
    );
    let _ = writeln!(out, "}}");
    out
}

/// Runs `options.cases` round-trip checks, shrinking any failures.
pub fn run_identfuzz(options: IdentFuzzOptions) -> Result<IdentFuzzReport, ModelError> {
    let mut failures = Vec::new();
    let mut total_nodes = 0usize;
    for index in 0..options.cases {
        let spec = sample_case(options.seed, index);
        total_nodes += spec.build()?.total_nodes();
        if let Some(counts) = check_case(&spec)? {
            let (spec, (planted, identified)) = shrink(spec, counts);
            failures.push(IdentFailure {
                case_index: index,
                spec,
                planted_clusters: planted,
                identified_clusters: identified,
            });
        }
    }
    Ok(IdentFuzzReport { seed: options.seed, cases_run: options.cases, total_nodes, failures })
}

/// Renders the fuzz report, including regression snippets for any
/// failures.
pub fn render(report: &IdentFuzzReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "identfuzz: seed {}, {} case(s) over {} node(s), {} failure(s) — {}",
        report.seed,
        report.cases_run,
        report.total_nodes,
        report.failures.len(),
        if report.failures.is_empty() { "PASS" } else { "FAIL" }
    );
    for f in &report.failures {
        let _ = writeln!(
            out,
            "\ncase {}: {:?}\n  planted {} cluster(s), identified {}",
            f.case_index, f.spec, f.planted_clusters, f.identified_clusters
        );
        let _ =
            writeln!(out, "  suggested regression test:\n{}", regression_snippet(report.seed, f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Degrades a recoverable case — shrinking the band separation and
    /// inflating the jitter — until identification diverges from the
    /// planted partition, returning the first diverging spec and the
    /// number of degradation steps taken. `None` if `max_steps` runs out
    /// first (the identifier is more robust than the walk is long).
    fn perturb_until_divergence(
        start: &IdentCaseSpec,
        max_steps: u32,
    ) -> Result<Option<(IdentCaseSpec, u32)>, ModelError> {
        let mut spec = *start;
        for step in 1..=max_steps {
            spec.separation = (spec.separation * 0.8).max(1.05);
            spec.jitter = (spec.jitter * 1.5 + 0.01).min(1.0 / 3.0);
            if check_case(&spec)?.is_some() {
                return Ok(Some((spec, step)));
            }
        }
        Ok(None)
    }

    #[test]
    fn sampling_is_deterministic_and_inside_the_guarantee_region() {
        for index in 0..100 {
            let a = sample_case(2005, index);
            assert_eq!(a, sample_case(2005, index), "case {index} must be reproducible");
            assert!((2..=8).contains(&a.clusters));
            assert!((4..=32).contains(&a.base_size));
            assert!((0.0..0.5).contains(&a.skew));
            assert!((4.0..12.0).contains(&a.separation));
            assert!((0.0..0.08).contains(&a.jitter));
            a.build().unwrap_or_else(|e| panic!("case {index} invalid: {e:?}"));
        }
        assert_ne!(sample_case(1, 0), sample_case(2, 0));
    }

    #[test]
    fn two_hundred_case_round_trip_holds() {
        // The acceptance criterion: 200 seeded cases inside the
        // guarantee region must all round-trip bit-exactly.
        let report = run_identfuzz(IdentFuzzOptions { cases: 200, seed: 2005 }).unwrap();
        assert_eq!(report.cases_run, 200);
        assert!(
            report.failures.is_empty(),
            "identification failed to round-trip:\n{}",
            render(&report)
        );
    }

    #[test]
    fn shrinker_minimises_and_terminates() {
        let mut spec = IdentCaseSpec {
            clusters: 8,
            base_size: 32,
            skew: 0.4,
            separation: 6.0,
            jitter: 0.06,
            shuffle: true,
            seed: 7,
        };
        let mut steps = 0;
        while let Some(candidate) = shrink_candidates(&spec).into_iter().next() {
            assert!(candidate.build().is_ok(), "shrink produced invalid spec {candidate:?}");
            spec = candidate;
            steps += 1;
            assert!(steps < 64, "shrinking must terminate");
        }
        assert_eq!(spec.clusters, 2);
        assert_eq!(spec.base_size, 4);
        assert_eq!(spec.skew, 0.0);
        assert!(spec.jitter <= 0.005);
        assert!(!spec.shuffle);
        assert_eq!(spec.separation, 6.0, "separation is never shrunk");
    }

    #[test]
    fn perturbation_walks_out_of_the_guarantee_region() {
        // Start well inside; degrading separation toward 1 and jitter
        // toward the clamp limit must eventually break the round-trip,
        // and the diverging spec must render a pasteable snippet.
        let start = IdentCaseSpec {
            clusters: 4,
            base_size: 16,
            skew: 0.0,
            separation: 8.0,
            jitter: 0.02,
            shuffle: false,
            seed: 11,
        };
        assert_eq!(check_case(&start).unwrap(), None, "start must be recoverable");
        let (diverged, steps) =
            perturb_until_divergence(&start, 32).unwrap().expect("divergence within 32 steps");
        assert!(steps >= 1);
        assert!(diverged.separation < start.separation);
        let counts = check_case(&diverged).unwrap().expect("diverged case still fails");
        let failure = IdentFailure {
            case_index: 0,
            spec: diverged,
            planted_clusters: counts.0,
            identified_clusters: counts.1,
        };
        let snippet = regression_snippet(11, &failure);
        assert!(snippet.contains("#[test]"));
        assert!(snippet.contains("IdentCaseSpec {"));
        assert!(snippet.contains("check_case(&spec)"));
    }
}

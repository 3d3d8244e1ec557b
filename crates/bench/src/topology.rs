//! The latency-matrix topology artefact: empirical matrix → identified
//! HMCS clusters → whole-system validation.
//!
//! Runs the full inverse pipeline the `latmatrix`/`identify` subsystem
//! provides, end to end, per case:
//!
//! 1. **Generate** a synthetic WAN/LAN latency matrix with a planted
//!    cluster structure ([`hmcs_topology::latmatrix::SyntheticSpec`]);
//!    the large case is 10,000 nodes, served implicitly in O(n) memory.
//! 2. **Identify** the clusters back from latencies alone
//!    ([`hmcs_core::identify`]) and record whether the planted
//!    partition is recovered bit-exactly, plus the fit residuals.
//! 3. **Fit** an HMCS [`SystemConfig`] from the identified structure
//!    and pin λ at a controlled fraction of its saturation rate.
//! 4. **Validate** the analytical (QNA) latency of the fitted config
//!    against replications of the flow simulation of the whole system
//!    ([`hmcs_sim::replication::run_modulated_replications`]), laid out
//!    by the identified partition and modulated by the matrix's
//!    per-pair residuals, using the same agreement band as the
//!    differential fuzzer.
//!
//! The flow simulator never consults the analytical solver, and it
//! runs the exact workload rather than a decomposition of it, so step
//! 4 is a genuine differential check.

use crate::differential::agreement_band;
use hmcs_core::batch::BatchOptions;
use hmcs_core::error::ModelError;
use hmcs_core::identify::{self, FitOptions, IdentifyOptions};
use hmcs_core::qna;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::saturation_lambda;
use hmcs_core::SystemConfig;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::HopDelays;
use hmcs_sim::replication::{run_modulated_replications, SimBudget};
use hmcs_topology::latmatrix::{LatencyBand, LatencySource, SyntheticSpec};
use std::time::Instant;

/// Fraction of the fitted config's saturation rate the validation runs
/// at: moderate load, squarely inside the differential fuzzer's
/// validated region.
pub(crate) const VALIDATION_UTILIZATION: f64 = 0.3;

/// One topology pipeline case.
#[derive(Debug, Clone, Copy)]
pub struct TopologyCase {
    /// Case name (CSV key).
    pub name: &'static str,
    /// Planted clusters.
    pub clusters: usize,
    /// Nodes per planted cluster.
    pub nodes_per_cluster: usize,
    /// Intra-cluster band (LAN) mean, µs.
    pub intra_mean_us: f64,
    /// Inter-cluster band (WAN) mean, µs.
    pub inter_mean_us: f64,
    /// Band std/mean ratio.
    pub jitter: f64,
    /// Whether node labels are shuffled.
    pub shuffle: bool,
}

/// The committed cases: a small dense-matrix case (materialisable as
/// CSV) and the 10k-node scale case served implicitly. The intra band
/// sits on the Fast-Ethernet preset latency so the fit snaps to a named
/// technology; the inter band is a genuine WAN latency no preset
/// matches, exercising the custom-technology path.
pub(crate) const TOPOLOGY_CASES: [TopologyCase; 2] = [
    TopologyCase {
        name: "lan_8x32",
        clusters: 8,
        nodes_per_cluster: 32,
        intra_mean_us: 50.0,
        inter_mean_us: 420.0,
        jitter: 0.05,
        shuffle: true,
    },
    TopologyCase {
        name: "wan_16x625",
        clusters: 16,
        nodes_per_cluster: 625,
        intra_mean_us: 50.0,
        inter_mean_us: 420.0,
        jitter: 0.05,
        shuffle: true,
    },
];

/// Everything one case's pipeline produced.
#[derive(Debug, Clone)]
pub struct TopologyCaseResult {
    /// The case that ran.
    pub case: TopologyCase,
    /// Total nodes in the matrix.
    pub nodes: usize,
    /// Planted cluster count.
    pub planted_clusters: usize,
    /// Identified cluster count.
    pub identified_clusters: usize,
    /// Whether the identified partition equals the planted one
    /// bit-exactly.
    pub roundtrip: bool,
    /// Identified gap threshold (µs), if any.
    pub threshold_us: Option<f64>,
    /// Identified intra-band median (µs).
    pub intra_median_us: f64,
    /// Identified inter-band median (µs), if any.
    pub inter_median_us: Option<f64>,
    /// Residual score of the two-level fit.
    pub residual_score: f64,
    /// Wall-clock seconds the identification pass took.
    pub identify_wall_s: f64,
    /// Identified per-cluster sizes, in canonical cluster order.
    pub cluster_sizes: Vec<usize>,
    /// Smallest member node of each identified cluster (canonical
    /// order), a deterministic fingerprint of the partition itself.
    pub cluster_leads: Vec<usize>,
    /// The fitted configuration the validation ran on.
    pub fitted: SystemConfig,
    /// QNA analytical mean latency of the fitted config (ms).
    pub analysis_ms: f64,
    /// Simulated grand mean latency over the replications (ms).
    pub sim_ms: f64,
    /// 95% confidence half-width over replication means (ms).
    pub ci95_ms: f64,
    /// Allowed |analysis − sim| gap (ms): `3·CI95 + band·sim`.
    pub allowed_ms: f64,
    /// Whether analysis and simulation agree.
    pub agrees: bool,
    /// Measured messages across all replications.
    pub messages: u64,
    /// Wall-clock seconds the simulation took.
    pub sim_wall_s: f64,
}

/// Options for [`run_topology`].
#[derive(Debug, Clone, Copy)]
pub struct TopologyOptions {
    /// Master seed (generator and simulation).
    pub seed: u64,
    /// Simulation budget (replications, messages and warm-up).
    pub budget: SimBudget,
}

impl Default for TopologyOptions {
    fn default() -> Self {
        TopologyOptions { seed: 2005, budget: SimBudget::Paper }
    }
}

/// Builds the generator spec for a case.
pub(crate) fn case_spec(case: &TopologyCase, seed: u64) -> Result<SyntheticSpec, ModelError> {
    let intra = LatencyBand::new(case.intra_mean_us, case.jitter * case.intra_mean_us)?;
    let inter = LatencyBand::new(case.inter_mean_us, case.jitter * case.inter_mean_us)?;
    let mut spec =
        SyntheticSpec::uniform(case.clusters, case.nodes_per_cluster, intra, inter, seed);
    spec.shuffle = case.shuffle;
    Ok(spec)
}

/// Runs one case's full pipeline.
pub(crate) fn run_case(
    case: &TopologyCase,
    options: &TopologyOptions,
) -> Result<TopologyCaseResult, ModelError> {
    run_case_at(case, options, VALIDATION_UTILIZATION)
}

/// [`run_case`] with λ at `utilization` × the fitted saturation rate.
fn run_case_at(
    case: &TopologyCase,
    options: &TopologyOptions,
    utilization: f64,
) -> Result<TopologyCaseResult, ModelError> {
    let spec = case_spec(case, options.seed)?;
    let source = spec.source()?;
    let planted = source.partition();

    let identify_started = Instant::now();
    let identified = identify::identify(&source, &IdentifyOptions::default())?;
    let identify_wall_s = identify_started.elapsed().as_secs_f64();
    let roundtrip = identified.partition == planted;

    // Fit, then pin λ at a fixed fraction of the fitted saturation rate
    // so the validation load is controlled regardless of what
    // technologies the fit chose.
    let fitted = identify::fitted_config(&identified, &FitOptions::default())?;
    let service = ServiceTimes::compute(&fitted)?;
    let fitted = fitted.with_lambda(utilization * saturation_lambda(&fitted, &service));
    fitted.validate()?;

    let analysis_ms = qna::evaluate(&fitted)?.latency.mean_message_latency_ms();

    // Only the mean latency is read: quantiles and centre statistics
    // stay off.
    let plan = options.budget.plan();
    let sim_cfg = SimConfig::new(fitted)
        .with_messages(plan.messages)
        .with_warmup(plan.warmup)
        .with_seed(options.seed)
        .with_quantiles(false)
        .with_center_stats(false);
    let hops = HopDelays {
        source: &source,
        intra_centre_us: identified.intra_median_us,
        inter_centre_us: identified.inter_median_us.unwrap_or(identified.intra_median_us),
        partition: &identified.partition,
    };
    let sim_started = Instant::now();
    let summary =
        run_modulated_replications(&sim_cfg, hops, plan.replications, BatchOptions::default())?;
    let sim_wall_s = sim_started.elapsed().as_secs_f64();

    let sim_ms = summary.mean_latency_us() / 1e3;
    let ci95_ms = summary.latency_ci95_us() / 1e3;
    let band = agreement_band(utilization, true);
    let allowed_ms = 3.0 * ci95_ms + band * sim_ms;
    let agrees = (analysis_ms - sim_ms).abs() <= allowed_ms;

    Ok(TopologyCaseResult {
        case: *case,
        nodes: source.nodes(),
        planted_clusters: planted.len(),
        identified_clusters: identified.partition.len(),
        roundtrip,
        threshold_us: identified.threshold_us,
        intra_median_us: identified.intra_median_us,
        inter_median_us: identified.inter_median_us,
        residual_score: identified.residual.score,
        identify_wall_s,
        cluster_sizes: identified.partition.iter().map(Vec::len).collect(),
        cluster_leads: identified.partition.iter().map(|m| m[0]).collect(),
        fitted,
        analysis_ms,
        sim_ms,
        ci95_ms,
        allowed_ms,
        agrees,
        messages: summary.replications.iter().map(|r| r.messages).sum(),
        sim_wall_s,
    })
}

/// Runs the full committed case list.
pub fn run_topology(options: &TopologyOptions) -> Result<Vec<TopologyCaseResult>, ModelError> {
    TOPOLOGY_CASES.iter().map(|case| run_case(case, options)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_case_pipeline_recovers_and_agrees() {
        let case = &TOPOLOGY_CASES[0];
        let r = run_case(case, &TopologyOptions { seed: 2005, budget: SimBudget::Ci }).unwrap();
        assert_eq!(r.nodes, 256);
        assert!(
            r.roundtrip,
            "identified {} of {} clusters",
            r.identified_clusters, r.planted_clusters
        );
        assert_eq!(r.identified_clusters, 8);
        assert_eq!(r.cluster_sizes, vec![32; 8]);
        // Intra median sits on the Fast-Ethernet preset latency; the
        // fit must have snapped to it.
        assert!((r.intra_median_us - 50.0).abs() / 50.0 < 0.05);
        assert_eq!(r.fitted.icn1.latency_us, 50.0);
        assert!(
            r.agrees,
            "analysis {} ms vs sim {} ms (allowed {})",
            r.analysis_ms, r.sim_ms, r.allowed_ms
        );
        assert_eq!(r.messages, 3 * 2_500, "three CI-budget replications");
    }

    /// (analysis − sim) / sim.
    fn gap(r: &TopologyCaseResult) -> f64 {
        (r.analysis_ms - r.sim_ms) / r.sim_ms
    }

    #[test]
    fn qna_holds_at_moderate_load_and_overshoots_near_saturation() {
        // The QNA refinement against the flow simulation of the whole
        // fitted system, at the paper budget: within 1% at 0.3×
        // saturation (measured −0.4%), but more than 5% over the
        // simulation at 0.9× (measured +7.4%), where QNA's
        // open-network fixed point overstates the queueing of the
        // closed, source-throttled system.
        let case = &TOPOLOGY_CASES[0];
        let options = TopologyOptions { seed: 2005, budget: SimBudget::Paper };
        let moderate = run_case_at(case, &options, 0.3).unwrap();
        assert!(gap(&moderate).abs() < 0.01, "gap {:.4} at 0.3x", gap(&moderate));
        let heavy = run_case_at(case, &options, 0.9).unwrap();
        assert!(gap(&heavy) > 0.05, "gap {:.4} at 0.9x", gap(&heavy));
    }

    #[test]
    fn hundred_thousand_node_case_round_trips_and_agrees() {
        let case = TopologyCase {
            name: "wan_16x6250",
            clusters: 16,
            nodes_per_cluster: 6_250,
            ..TOPOLOGY_CASES[1]
        };
        let r = run_case(&case, &TopologyOptions { seed: 2005, budget: SimBudget::Ci }).unwrap();
        assert_eq!(r.nodes, 100_000);
        assert!(r.roundtrip, "identified {} of 16 clusters", r.identified_clusters);
        assert_eq!(r.cluster_sizes, vec![6_250; 16]);
        assert!(
            r.agrees,
            "analysis {} ms vs sim {} ms (allowed {})",
            r.analysis_ms, r.sim_ms, r.allowed_ms
        );
    }

    #[test]
    fn case_spec_is_deterministic() {
        let case = &TOPOLOGY_CASES[0];
        let a = case_spec(case, 7).unwrap().source().unwrap();
        let b = case_spec(case, 7).unwrap().source().unwrap();
        assert_eq!(a.latency_us(3, 200).to_bits(), b.latency_us(3, 200).to_bits());
        let c = case_spec(case, 8).unwrap().source().unwrap();
        assert_ne!(a.latency_us(3, 200).to_bits(), c.latency_us(3, 200).to_bits());
    }
}

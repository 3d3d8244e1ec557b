//! Differential fuzzing: analytical model vs simulation.
//!
//! The figures only exercise the paper's 256-node sweeps; this module
//! samples random valid [`SystemConfig`]s across the whole parameter
//! space (cluster counts, asymmetric populations, message sizes, both
//! scenarios and architectures, non-exponential service) and checks
//! that the QNA-refined analytical latency agrees with replicated
//! flow-level simulation within the replication confidence interval
//! plus a calibrated model-error band. Offered rates are placed at a
//! controlled distance from the closed-form stability boundary
//! ([`hmcs_core::solver::saturation_lambda`]), so every sampled system
//! is stable but spans light to heavy load.
//!
//! Sampling is seeded and fully deterministic: case `i` of seed `s`
//! is always the same system, so a CI failure reproduces locally.
//! When a case disagrees, a greedy shrinker walks it down to a minimal
//! still-failing configuration and renders a ready-to-paste regression
//! test, turning a fuzz hit into a permanent guardrail.

use hmcs_core::config::{ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::qna;
use hmcs_core::scenario::Scenario;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::saturation_lambda;
use hmcs_des::rng::RngStream;
use hmcs_sim::config::SimConfig;
use hmcs_sim::replication::{run_replications, SimBudget, Simulator};
use hmcs_topology::transmission::Architecture;
use std::fmt::Write as _;

/// One sampled point in configuration space.
///
/// The offered rate is stored as a *utilization fraction* of the
/// closed-form saturation rate rather than an absolute λ, so shrinking
/// a dimension (say, halving the message size) keeps the system at the
/// same relative load instead of accidentally leaving the stable region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Number of clusters.
    pub clusters: usize,
    /// Processors per cluster.
    pub nodes_per_cluster: usize,
    /// Message size in bytes.
    pub message_bytes: u64,
    /// Network assignment (Table 1).
    pub scenario: Scenario,
    /// ICN topology.
    pub architecture: Architecture,
    /// Per-processor service-time distribution.
    pub service_model: ServiceTimeModel,
    /// Offered rate as a fraction of the saturation rate, in (0, 1).
    pub utilization: f64,
}

impl CaseSpec {
    /// Materialises the spec: builds the config and pins λ at
    /// `utilization · saturation_lambda`.
    pub fn build(&self) -> Result<SystemConfig, ModelError> {
        // λ is overwritten below; any positive placeholder validates.
        let config = SystemConfig::new(
            self.clusters,
            self.nodes_per_cluster,
            self.message_bytes,
            1e-9,
            self.scenario,
            self.architecture,
        )?
        .with_service_model(self.service_model);
        let service = ServiceTimes::compute(&config)?;
        let sat = saturation_lambda(&config, &service);
        let config = config.with_lambda(self.utilization * sat);
        config.validate()?;
        Ok(config)
    }
}

/// Result of the differential check on one configuration.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// QNA analytical mean message latency (ms).
    pub analysis_ms: f64,
    /// Replicated flow-simulation grand mean (ms).
    pub sim_ms: f64,
    /// 95% confidence half-width of the sim mean (ms).
    pub ci95_ms: f64,
    /// Total allowed |analysis − sim| gap (ms).
    pub allowed_ms: f64,
    /// Whether the analytical model agrees with simulation.
    pub agrees: bool,
}

/// A fuzz case whose analytical and simulated latencies disagree,
/// after shrinking.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Index of the originally failing case.
    pub case_index: u32,
    /// The shrunk, still-failing spec.
    pub spec: CaseSpec,
    /// Measurements on the shrunk spec.
    pub outcome: VerifyOutcome,
}

/// Summary of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seed the run was keyed by.
    pub seed: u64,
    /// Cases evaluated.
    pub cases_run: u32,
    /// Shrunk disagreements (empty on a healthy model).
    pub disagreements: Vec<Disagreement>,
}

/// Options for [`run_fuzz`].
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Number of random configurations to check.
    pub cases: u32,
    /// Master seed; case `i` derives its own RNG stream from it.
    pub seed: u64,
    /// Simulation budget per check.
    pub budget: SimBudget,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { cases: 25, seed: 2005, budget: SimBudget::Paper }
    }
}

const CLUSTER_CHOICES: [usize; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];
const NODE_CHOICES: [usize; 8] = [2, 3, 4, 6, 8, 16, 32, 64];
const BYTE_CHOICES: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Draws case `index` of `seed` — deterministic and independent of
/// every other case.
pub fn sample_case(seed: u64, index: u32) -> CaseSpec {
    let mut rng = RngStream::new(seed, u64::from(index));
    let mut clusters = CLUSTER_CHOICES[rng.uniform_below(CLUSTER_CHOICES.len())];
    let mut nodes = NODE_CHOICES[rng.uniform_below(NODE_CHOICES.len())];
    // Stay inside the model's validity region: below ~16 processors the
    // infinite-source Poisson assumption overpredicts queueing (finite
    // population — fuzzing found analysis 29% above sim at N=2), and
    // above 512 the flow simulator stops being cheap.
    while !(16..=512).contains(&(clusters * nodes)) {
        nodes = NODE_CHOICES[rng.uniform_below(NODE_CHOICES.len())];
        clusters = CLUSTER_CHOICES[rng.uniform_below(CLUSTER_CHOICES.len())];
    }
    let message_bytes = BYTE_CHOICES[rng.uniform_below(BYTE_CHOICES.len())];
    let scenario = if rng.uniform() < 0.5 { Scenario::Case1 } else { Scenario::Case2 };
    let architecture =
        if rng.uniform() < 0.5 { Architecture::NonBlocking } else { Architecture::Blocking };
    // Mostly exponential (the paper's model); a steady minority of the
    // distributions the QNA layer exists for.
    let service_model = match rng.uniform_below(10) {
        0 => ServiceTimeModel::Deterministic,
        1 => ServiceTimeModel::Erlang(2),
        2 => ServiceTimeModel::Erlang(4),
        3 => ServiceTimeModel::HyperExponential(4.0),
        _ => ServiceTimeModel::Exponential,
    };
    // Light to heavy but safely sub-saturation load.
    let utilization = 0.05 + 0.65 * rng.uniform();
    CaseSpec {
        clusters,
        nodes_per_cluster: nodes,
        message_bytes,
        scenario,
        architecture,
        service_model,
        utilization,
    }
}

/// Allowed fractional model-error band on top of the replication CI,
/// for a system at `utilization` (fraction of the saturation rate) with
/// (`exponential`) or without exponential service. Heavier load and
/// non-exponential service widen the band: QNA is exact for M/M/1
/// stages but approximate for GI/G/1, and finite runs near saturation
/// carry more transient bias. Shared by the fuzzer and the topology
/// pipeline's analysis-vs-simulation validation.
pub(crate) fn agreement_band(utilization: f64, exponential: bool) -> f64 {
    let mut band = 0.06 + 0.12 * utilization;
    if !exponential {
        band += 0.05;
    }
    band
}

/// [`agreement_band`] of a sampled spec.
fn error_band(spec: &CaseSpec) -> f64 {
    agreement_band(spec.utilization, spec.service_model == ServiceTimeModel::Exponential)
}

/// Runs the differential check on one concrete configuration.
///
/// Agreement means `|analysis − sim| ≤ 3·CI95 + band·sim`: three
/// half-widths absorb replication noise, the band absorbs the modelling
/// error the figures show the paper's own data carries.
pub fn verify_config(
    config: &SystemConfig,
    band: f64,
    budget: SimBudget,
) -> Result<VerifyOutcome, ModelError> {
    let analysis_ms = qna::evaluate(config)?.latency.mean_message_latency_ms();
    let plan = budget.plan();
    let sim_config = SimConfig::new(*config)
        .with_messages(plan.messages)
        .with_warmup(plan.warmup)
        .with_seed(2005);
    let summary = run_replications(&sim_config, Simulator::Flow, plan.replications)?;
    let sim_ms = summary.mean_latency_us() / 1e3;
    let ci95_ms = summary.latency_ci95_us() / 1e3;
    let allowed_ms = 3.0 * ci95_ms + band * sim_ms;
    let agrees = (analysis_ms - sim_ms).abs() <= allowed_ms;
    Ok(VerifyOutcome { analysis_ms, sim_ms, ci95_ms, allowed_ms, agrees })
}

/// Checks one spec; `Ok(None)` means agreement.
fn check_spec(spec: &CaseSpec, budget: SimBudget) -> Result<Option<VerifyOutcome>, ModelError> {
    let config = spec.build()?;
    let outcome = verify_config(&config, error_band(spec), budget)?;
    Ok(if outcome.agrees { None } else { Some(outcome) })
}

/// Candidate one-step simplifications of a failing spec, in preference
/// order (structurally smaller first).
fn shrink_candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    // Population shrinks stop at the model's 16-processor validity
    // floor, so a shrunk repro never fails for the (known, documented)
    // finite-population reason instead of the original one.
    if spec.clusters > 1 && (spec.clusters / 2) * spec.nodes_per_cluster >= 16 {
        out.push(CaseSpec { clusters: spec.clusters / 2, ..*spec });
    }
    if spec.nodes_per_cluster > 2 && spec.clusters * (spec.nodes_per_cluster / 2) >= 16 {
        out.push(CaseSpec { nodes_per_cluster: spec.nodes_per_cluster / 2, ..*spec });
    }
    if spec.message_bytes > 64 {
        out.push(CaseSpec { message_bytes: spec.message_bytes / 2, ..*spec });
    }
    if spec.service_model != ServiceTimeModel::Exponential {
        out.push(CaseSpec { service_model: ServiceTimeModel::Exponential, ..*spec });
    }
    if spec.architecture == Architecture::Blocking {
        out.push(CaseSpec { architecture: Architecture::NonBlocking, ..*spec });
    }
    if spec.utilization > 0.15 {
        out.push(CaseSpec { utilization: spec.utilization * 0.5, ..*spec });
    }
    out
}

/// Greedily shrinks a failing spec: repeatedly takes the first
/// simplification that still disagrees, until none does.
fn shrink(spec: CaseSpec, outcome: VerifyOutcome, budget: SimBudget) -> (CaseSpec, VerifyOutcome) {
    let mut current = (spec, outcome);
    // Each accepted step strictly reduces a bounded dimension, so a
    // generous iteration cap cannot spin.
    for _ in 0..64 {
        let mut advanced = false;
        for candidate in shrink_candidates(&current.0) {
            // Agreement or an invalid shrink: keep looking.
            if let Ok(Some(outcome)) = check_spec(&candidate, budget) {
                current = (candidate, outcome);
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

/// Renders a ready-to-paste regression test for a shrunk disagreement.
pub fn regression_snippet(seed: u64, d: &Disagreement) -> String {
    let spec = &d.spec;
    let scenario = match spec.scenario {
        Scenario::Case1 => "Scenario::Case1",
        Scenario::Case2 => "Scenario::Case2",
    };
    let architecture = match spec.architecture {
        Architecture::NonBlocking => "Architecture::NonBlocking",
        Architecture::Blocking => "Architecture::Blocking",
    };
    let service = match spec.service_model {
        ServiceTimeModel::Exponential => String::new(),
        ServiceTimeModel::Deterministic => {
            "\n        .with_service_model(ServiceTimeModel::Deterministic)".to_string()
        }
        ServiceTimeModel::Erlang(k) => {
            format!("\n        .with_service_model(ServiceTimeModel::Erlang({k}))")
        }
        ServiceTimeModel::HyperExponential(scv) => {
            format!("\n        .with_service_model(ServiceTimeModel::HyperExponential({scv:?}))")
        }
    };
    let lambda = spec
        .build()
        .map(|c| format!("{:.6e}", c.lambda_per_us))
        .unwrap_or_else(|_| "/* rebuild failed */ 0.0".to_string());
    let mut out = String::new();
    let _ = writeln!(out, "#[test]");
    let _ = writeln!(
        out,
        "fn fuzz_regression_c{}_n{}_m{}() {{",
        spec.clusters, spec.nodes_per_cluster, spec.message_bytes
    );
    let _ =
        writeln!(out, "    // Found by `reproduce fuzz --seed {seed}` (case {}):", d.case_index);
    let _ = writeln!(
        out,
        "    // analysis {:.3} ms vs sim {:.3} ms (allowed gap {:.3} ms).",
        d.outcome.analysis_ms, d.outcome.sim_ms, d.outcome.allowed_ms
    );
    let _ = writeln!(
        out,
        "    let config = SystemConfig::new({}, {}, {}, {lambda}, {scenario}, {architecture})",
        spec.clusters, spec.nodes_per_cluster, spec.message_bytes
    );
    let _ = writeln!(out, "        .unwrap(){service};");
    let _ = writeln!(
        out,
        "    let outcome = verify_config(&config, {:.3}, SimBudget::Paper).unwrap();",
        error_band(spec)
    );
    let _ = writeln!(out, "    assert!(outcome.agrees, \"{{outcome:?}}\");");
    let _ = writeln!(out, "}}");
    out
}

/// Runs `options.cases` differential checks, shrinking any failures.
pub fn run_fuzz(options: FuzzOptions) -> Result<FuzzReport, ModelError> {
    let mut disagreements = Vec::new();
    for index in 0..options.cases {
        let spec = sample_case(options.seed, index);
        if let Some(outcome) = check_spec(&spec, options.budget)? {
            let (spec, outcome) = shrink(spec, outcome, options.budget);
            disagreements.push(Disagreement { case_index: index, spec, outcome });
        }
    }
    Ok(FuzzReport { seed: options.seed, cases_run: options.cases, disagreements })
}

/// Renders the fuzz report, including regression snippets for any
/// disagreements.
pub fn render(report: &FuzzReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fuzz: seed {}, {} case(s), {} disagreement(s) — {}",
        report.seed,
        report.cases_run,
        report.disagreements.len(),
        if report.disagreements.is_empty() { "PASS" } else { "FAIL" }
    );
    for d in &report.disagreements {
        let _ = writeln!(
            out,
            "\ncase {}: {:?}\n  analysis {:.3} ms, sim {:.3} ms ± {:.3} (allowed {:.3})",
            d.case_index,
            d.spec,
            d.outcome.analysis_ms,
            d.outcome.sim_ms,
            d.outcome.ci95_ms,
            d.outcome.allowed_ms
        );
        let _ =
            writeln!(out, "  suggested regression test:\n{}", regression_snippet(report.seed, d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_valid() {
        for index in 0..50 {
            let a = sample_case(2005, index);
            let b = sample_case(2005, index);
            assert_eq!(a, b, "case {index} must be reproducible");
            let config = a.build().unwrap_or_else(|e| panic!("case {index} invalid: {e:?}"));
            config.validate().unwrap();
            assert!(config.lambda_per_us > 0.0);
            assert!(a.utilization > 0.0 && a.utilization < 0.75);
            assert!((16..=512).contains(&config.total_nodes()));
        }
        // Different seeds genuinely move the samples.
        assert_ne!(sample_case(1, 0), sample_case(2, 0));
    }

    #[test]
    fn paper_point_agrees() {
        // The paper's own operating point must never disagree: Case-1,
        // 8 clusters of 32, M=1024 at the paper rate is squarely inside
        // the validated region.
        let spec = CaseSpec {
            clusters: 8,
            nodes_per_cluster: 32,
            message_bytes: 1024,
            scenario: Scenario::Case1,
            architecture: Architecture::NonBlocking,
            service_model: ServiceTimeModel::Exponential,
            utilization: 0.3,
        };
        let outcome = check_spec(&spec, SimBudget::Ci).unwrap();
        assert!(outcome.is_none(), "paper point disagreed: {outcome:?}");
    }

    #[test]
    fn shrinker_minimises_an_artificial_failure() {
        // Shrink with an always-failing oracle by driving the candidate
        // walk directly: every shrink candidate list must strictly
        // simplify, terminate, and stay valid.
        let mut spec = CaseSpec {
            clusters: 16,
            nodes_per_cluster: 32,
            message_bytes: 2048,
            scenario: Scenario::Case2,
            architecture: Architecture::Blocking,
            service_model: ServiceTimeModel::Erlang(4),
            utilization: 0.6,
        };
        let mut steps = 0;
        while let Some(candidate) = shrink_candidates(&spec).into_iter().next() {
            assert!(candidate.build().is_ok(), "shrink produced invalid spec {candidate:?}");
            spec = candidate;
            steps += 1;
            assert!(steps < 64, "shrinking must terminate");
        }
        assert_eq!(spec.clusters, 1);
        // Population shrinking stops at the 16-processor validity floor.
        assert_eq!(spec.nodes_per_cluster, 16);
        assert_eq!(spec.message_bytes, 64);
        assert_eq!(spec.service_model, ServiceTimeModel::Exponential);
        assert_eq!(spec.architecture, Architecture::NonBlocking);
    }

    #[test]
    fn snippet_is_ready_to_paste() {
        let spec = CaseSpec {
            clusters: 2,
            nodes_per_cluster: 4,
            message_bytes: 512,
            scenario: Scenario::Case1,
            architecture: Architecture::NonBlocking,
            service_model: ServiceTimeModel::Erlang(2),
            utilization: 0.4,
        };
        let d = Disagreement {
            case_index: 7,
            spec,
            outcome: VerifyOutcome {
                analysis_ms: 1.0,
                sim_ms: 2.0,
                ci95_ms: 0.1,
                allowed_ms: 0.5,
                agrees: false,
            },
        };
        let snippet = regression_snippet(2005, &d);
        assert!(snippet.contains("#[test]"));
        assert!(snippet.contains("SystemConfig::new(2, 4, 512,"));
        assert!(snippet.contains("ServiceTimeModel::Erlang(2)"));
        assert!(snippet.contains("assert!(outcome.agrees"));
    }
}

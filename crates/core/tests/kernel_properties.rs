//! Seeded differential fuzz of the batched SoA kernel: every lane of a
//! multi-configuration [`BatchKernel`] solve, and the production
//! single-point facade [`AnalyticalModel::evaluate`], must be
//! bit-identical (`f64::to_bits`, not merely close) to the scalar
//! reference solver [`solver::solve`] on the same configuration.
//!
//! Follows the conventions of the simulation fuzzer in
//! `crates/bench/src/differential.rs`: a seeded sampler over the
//! model's 16–512-processor validity region, a greedy shrinker that
//! walks a failing case down to a minimal still-failing configuration,
//! and a ready-to-paste regression snippet in the panic message.

use hmcs_core::batch::EvalStats;
use hmcs_core::config::{ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::kernel::BatchKernel;
use hmcs_core::model::{AnalyticalModel, PerformanceReport};
use hmcs_core::scenario::Scenario;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::{self, saturation_lambda};
use hmcs_topology::transmission::Architecture;

/// SplitMix64, the same generator family the DES crate seeds its
/// streams with — local because hmcs-core must not depend on it.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform_below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }
}

/// One sampled point in configuration space; the offered rate is a
/// utilization fraction of the saturation rate so shrinking a dimension
/// keeps the system at the same relative load.
#[derive(Debug, Clone, Copy)]
struct KernelCase {
    clusters: usize,
    nodes_per_cluster: usize,
    message_bytes: u64,
    scenario: Scenario,
    architecture: Architecture,
    service_model: ServiceTimeModel,
    utilization: f64,
}

const CLUSTER_CHOICES: [usize; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];
const NODE_CHOICES: [usize; 8] = [2, 3, 4, 6, 8, 16, 32, 64];
const BYTE_CHOICES: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

fn sample_case(seed: u64, index: u32) -> KernelCase {
    let mut rng = SplitMix64::new(seed, u64::from(index));
    let mut clusters = CLUSTER_CHOICES[rng.uniform_below(CLUSTER_CHOICES.len())];
    let mut nodes = NODE_CHOICES[rng.uniform_below(NODE_CHOICES.len())];
    // The same validity region the simulation fuzzer samples.
    while !(16..=512).contains(&(clusters * nodes)) {
        nodes = NODE_CHOICES[rng.uniform_below(NODE_CHOICES.len())];
        clusters = CLUSTER_CHOICES[rng.uniform_below(CLUSTER_CHOICES.len())];
    }
    let message_bytes = BYTE_CHOICES[rng.uniform_below(BYTE_CHOICES.len())];
    let scenario = if rng.uniform() < 0.5 { Scenario::Case1 } else { Scenario::Case2 };
    let architecture =
        if rng.uniform() < 0.5 { Architecture::NonBlocking } else { Architecture::Blocking };
    let service_model = match rng.uniform_below(10) {
        0 => ServiceTimeModel::Deterministic,
        1 => ServiceTimeModel::Erlang(2),
        2 => ServiceTimeModel::Erlang(4),
        3 => ServiceTimeModel::HyperExponential(4.0),
        _ => ServiceTimeModel::Exponential,
    };
    // Light load through past the knee — the kernel must agree with the
    // scalar solver bit-for-bit everywhere, including where the
    // saturation back-off engages.
    let utilization = 0.05 + 0.90 * rng.uniform();
    KernelCase {
        clusters,
        nodes_per_cluster: nodes,
        message_bytes,
        scenario,
        architecture,
        service_model,
        utilization,
    }
}

impl KernelCase {
    fn build(&self) -> Result<SystemConfig, ModelError> {
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

type LaneResult = Result<(PerformanceReport, EvalStats), ModelError>;

/// Attaches the report's own iteration count as lane stats, so a
/// single-report path compares like a kernel lane.
fn as_lane(result: Result<PerformanceReport, ModelError>) -> LaneResult {
    result.map(|report| {
        let stats = EvalStats {
            eval_time_us: 0.0,
            solver_iterations: report.equilibrium.solver_iterations,
        };
        (report, stats)
    })
}

/// The scalar reference: [`solver::solve`] plus report assembly.
fn scalar(config: &SystemConfig) -> LaneResult {
    as_lane(solver::solve(config).map(|eq| PerformanceReport::from_equilibrium(config, eq)))
}

/// The production single-point facade.
fn facade(config: &SystemConfig) -> LaneResult {
    as_lane(AnalyticalModel::evaluate(config))
}

/// Describes the first bitwise difference between a kernel lane and the
/// scalar path, or `None` when they agree exactly.
fn lane_mismatch(kernel: &LaneResult, scalar: &LaneResult) -> Option<String> {
    match (kernel, scalar) {
        (Ok((kr, ks)), Ok((sr, ss))) => {
            let pairs = [
                ("lambda_eff", kr.equilibrium.lambda_eff, sr.equilibrium.lambda_eff),
                ("total_waiting", kr.equilibrium.total_waiting, sr.equilibrium.total_waiting),
                (
                    "mean_message_latency_ms",
                    kr.latency.mean_message_latency_ms(),
                    sr.latency.mean_message_latency_ms(),
                ),
            ];
            for (name, k, s) in pairs {
                if k.to_bits() != s.to_bits() {
                    return Some(format!(
                        "{name}: kernel {k:?} ({:#x}) vs scalar {s:?} ({:#x})",
                        k.to_bits(),
                        s.to_bits()
                    ));
                }
            }
            if kr != sr {
                return Some("reports differ outside the headline fields".to_string());
            }
            if ks.solver_iterations != ss.solver_iterations {
                return Some(format!(
                    "solver_iterations: kernel {} vs scalar {}",
                    ks.solver_iterations, ss.solver_iterations
                ));
            }
            None
        }
        (Err(k), Err(s)) => {
            let (k, s) = (format!("{k:?}"), format!("{s:?}"));
            (k != s).then(|| format!("errors differ: kernel {k} vs scalar {s}"))
        }
        (Ok(_), Err(s)) => Some(format!("kernel solved, scalar failed with {s:?}")),
        (Err(k), Ok(_)) => Some(format!("kernel failed with {k:?}, scalar solved")),
    }
}

/// Checks one case solo (a one-lane kernel against the scalar path);
/// `None` means bit-identical. Build failures read as agreement: both
/// paths reject the config before any lane math runs.
fn check_solo(case: &KernelCase) -> Option<String> {
    let config = case.build().ok()?;
    let kernel = BatchKernel::new(std::slice::from_ref(&config)).solve().pop().expect("one lane");
    lane_mismatch(&kernel, &scalar(&config))
}

/// Candidate one-step simplifications, structurally smaller first —
/// the same walk as the simulation fuzzer's shrinker, with the same
/// 16-processor sampler floor so a shrunk repro stays in-region.
fn shrink_candidates(case: &KernelCase) -> Vec<KernelCase> {
    let mut out = Vec::new();
    if case.clusters > 1 && (case.clusters / 2) * case.nodes_per_cluster >= 16 {
        out.push(KernelCase { clusters: case.clusters / 2, ..*case });
    }
    if case.nodes_per_cluster > 2 && case.clusters * (case.nodes_per_cluster / 2) >= 16 {
        out.push(KernelCase { nodes_per_cluster: case.nodes_per_cluster / 2, ..*case });
    }
    if case.message_bytes > 64 {
        out.push(KernelCase { message_bytes: case.message_bytes / 2, ..*case });
    }
    if case.service_model != ServiceTimeModel::Exponential {
        out.push(KernelCase { service_model: ServiceTimeModel::Exponential, ..*case });
    }
    if case.architecture == Architecture::Blocking {
        out.push(KernelCase { architecture: Architecture::NonBlocking, ..*case });
    }
    if case.utilization > 0.15 {
        out.push(KernelCase { utilization: case.utilization * 0.5, ..*case });
    }
    out
}

/// Greedily shrinks a failing case: repeatedly takes the first
/// simplification that still mismatches, until none does.
fn shrink(case: KernelCase, mismatch: String) -> (KernelCase, String) {
    let mut current = (case, mismatch);
    for _ in 0..64 {
        let mut advanced = false;
        for candidate in shrink_candidates(&current.0) {
            if let Some(mismatch) = check_solo(&candidate) {
                current = (candidate, mismatch);
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

/// Renders a ready-to-paste regression test for a shrunk mismatch.
fn regression_snippet(seed: u64, index: u32, case: &KernelCase, mismatch: &str) -> String {
    let scenario = match case.scenario {
        Scenario::Case1 => "Scenario::Case1",
        Scenario::Case2 => "Scenario::Case2",
    };
    let architecture = match case.architecture {
        Architecture::NonBlocking => "Architecture::NonBlocking",
        Architecture::Blocking => "Architecture::Blocking",
    };
    let service = match case.service_model {
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
    let lambda = case
        .build()
        .map(|c| format!("{:.6e}", c.lambda_per_us))
        .unwrap_or_else(|_| "/* rebuild failed */ 0.0".to_string());
    format!(
        "#[test]\n\
         fn kernel_regression_c{c}_n{n}_m{m}() {{\n\
         \x20   // Found by kernel_properties seed {seed} (case {index}):\n\
         \x20   // {mismatch}\n\
         \x20   let config = SystemConfig::new({c}, {n}, {m}, {lambda}, {scenario}, {architecture})\n\
         \x20       .unwrap(){service};\n\
         \x20   let kernel = BatchKernel::new(std::slice::from_ref(&config)).solve().pop().unwrap();\n\
         \x20   assert!(lane_mismatch(&kernel, &scalar(&config)).is_none());\n\
         }}\n",
        c = case.clusters,
        n = case.nodes_per_cluster,
        m = case.message_bytes,
    )
}

const SEED: u64 = 2005;
const CASES: u32 = 200;

/// 200 seeded configurations across the validity region, solved as the
/// lanes of a single heterogeneous [`BatchKernel`], each compared
/// bit-for-bit against an independent scalar evaluation. Each case also
/// runs through the facade, on the sampled config and on a copy with a
/// rejected (negative) rate so the error path is compared too.
#[test]
fn batched_kernel_is_bit_identical_to_scalar() {
    let cases: Vec<KernelCase> = (0..CASES).map(|i| sample_case(SEED, i)).collect();
    let configs: Vec<SystemConfig> =
        cases.iter().map(|c| c.build().expect("sampled cases are valid")).collect();
    let lanes = BatchKernel::new(&configs).solve();
    assert_eq!(lanes.len(), configs.len());
    for (i, (lane, config)) in lanes.iter().zip(&configs).enumerate() {
        let invalid = config.with_lambda(-config.lambda_per_us);
        for checked in [config, &invalid] {
            if let Some(mismatch) = lane_mismatch(&facade(checked), &scalar(checked)) {
                panic!("facade/scalar mismatch at case {i} ({checked:?}): {mismatch}");
            }
        }
        if let Some(mismatch) = lane_mismatch(lane, &scalar(config)) {
            let case = cases[i];
            // Reproduce solo so the shrinker has a standalone check;
            // lanes are independent, so a batch failure reproduces
            // solo unless the batch composition itself is the bug.
            let (case, mismatch) = match check_solo(&case) {
                Some(m) => shrink(case, m),
                None => (case, format!("{mismatch} (only in a {CASES}-lane batch)")),
            };
            panic!(
                "kernel/scalar mismatch at case {i}: {mismatch}\n\
                 suggested regression test:\n{}",
                regression_snippet(SEED, i as u32, &case, &mismatch)
            );
        }
    }
}

/// Lane results must not depend on batch composition: a lane solved
/// among 200 others is bit-identical to the same configuration solved
/// alone. (This is also what makes solo shrinking sound above.)
#[test]
fn lane_results_are_independent_of_batch_composition() {
    let cases: Vec<KernelCase> = (0..24).map(|i| sample_case(SEED ^ 0xba7c4, i)).collect();
    let configs: Vec<SystemConfig> =
        cases.iter().map(|c| c.build().expect("sampled cases are valid")).collect();
    let together = BatchKernel::new(&configs).solve();
    for (i, config) in configs.iter().enumerate() {
        let solo = BatchKernel::new(std::slice::from_ref(config)).solve().pop().expect("one lane");
        assert!(
            lane_mismatch(&together[i], &solo).is_none(),
            "lane {i} differs between a 24-lane batch and a solo solve"
        );
    }
}

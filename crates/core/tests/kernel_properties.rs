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
use hmcs_core::kernel::{
    evaluate_batch_bounded, BatchKernel, LaneBounds, LaneOutcome, LaneService,
};
use hmcs_core::model::{AnalyticalModel, PerformanceReport};
use hmcs_core::scenario::Scenario;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::{self, saturation_lambda};
use hmcs_topology::splitmix::{SplitMix64, GAMMA};
use hmcs_topology::transmission::Architecture;
use proptest::prelude::*;

fn uniform(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn uniform_below(rng: &mut SplitMix64, n: usize) -> usize {
    (uniform(rng) * n as f64) as usize % n
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
    let mut rng = SplitMix64::new(seed ^ u64::from(index).wrapping_mul(GAMMA));
    let mut clusters = CLUSTER_CHOICES[uniform_below(&mut rng, CLUSTER_CHOICES.len())];
    let mut nodes = NODE_CHOICES[uniform_below(&mut rng, NODE_CHOICES.len())];
    // The same validity region the simulation fuzzer samples.
    while !(16..=512).contains(&(clusters * nodes)) {
        nodes = NODE_CHOICES[uniform_below(&mut rng, NODE_CHOICES.len())];
        clusters = CLUSTER_CHOICES[uniform_below(&mut rng, CLUSTER_CHOICES.len())];
    }
    let message_bytes = BYTE_CHOICES[uniform_below(&mut rng, BYTE_CHOICES.len())];
    let scenario = if uniform(&mut rng) < 0.5 { Scenario::Case1 } else { Scenario::Case2 };
    let architecture =
        if uniform(&mut rng) < 0.5 { Architecture::NonBlocking } else { Architecture::Blocking };
    let service_model = match uniform_below(&mut rng, 10) {
        0 => ServiceTimeModel::Deterministic,
        1 => ServiceTimeModel::Erlang(2),
        2 => ServiceTimeModel::Erlang(4),
        3 => ServiceTimeModel::HyperExponential(4.0),
        _ => ServiceTimeModel::Exponential,
    };
    // Light load through past the knee — the kernel must agree with the
    // scalar solver bit-for-bit everywhere, including where the
    // saturation back-off engages.
    let utilization = 0.05 + 0.90 * uniform(&mut rng);
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

/// Cases of the seeded fuzz: 200, or a positive `PROPTEST_CASES` from
/// the environment, as for the workspace's property tests.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(200)
}

/// [`fuzz_cases`] seeded configurations across the validity region,
/// solved as the lanes of a single heterogeneous [`BatchKernel`], each compared
/// bit-for-bit against an independent scalar evaluation. Each case also
/// runs through the facade, on the sampled config and on a copy with a
/// rejected (negative) rate so the error path is compared too.
#[test]
fn batched_kernel_is_bit_identical_to_scalar() {
    let cases: Vec<KernelCase> = (0..fuzz_cases()).map(|i| sample_case(SEED, i)).collect();
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
                None => (case, format!("{mismatch} (only in a {}-lane batch)", cases.len())),
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

/// Outcome bits of one bounded lane: the report's headline fields and
/// iteration count, the error's text, or the pruned lower bound.
fn outcome_mismatch(batch: &LaneOutcome, solo: &LaneOutcome) -> Option<String> {
    match (batch, solo) {
        (LaneOutcome::Solved(br, bs), LaneOutcome::Solved(sr, ss)) => {
            lane_mismatch(&Ok((*br, *bs)), &Ok((*sr, *ss)))
        }
        (LaneOutcome::Failed(b), LaneOutcome::Failed(s)) => {
            (b != s).then(|| format!("errors differ: batch {b:?} vs solo {s:?}"))
        }
        (LaneOutcome::Pruned { latency_lb_us: b }, LaneOutcome::Pruned { latency_lb_us: s }) => {
            (b.to_bits() != s.to_bits()).then(|| format!("pruned bound: batch {b:?} vs solo {s:?}"))
        }
        (b, s) => Some(format!("batch {b:?} vs solo {s:?}")),
    }
}

/// `count` sampled lanes with their service and bounds, and each lane's
/// outcome solved alone in a one-lane batch (which never compacts). One
/// lane in eight fails validation in the kernel, one solves unbounded;
/// the rest get an SLO or a dominance threshold between 0.6 and 0.99 of
/// their true latency.
struct BoundedLanes {
    configs: Vec<SystemConfig>,
    service: Vec<LaneService>,
    bounds: Vec<LaneBounds>,
    solo: Vec<LaneOutcome>,
}

fn bounded_lanes(seed: u64, count: u32) -> BoundedLanes {
    let cases: Vec<KernelCase> = (0..count).map(|i| sample_case(seed, i)).collect();
    let mut configs: Vec<SystemConfig> =
        cases.iter().map(|c| c.build().expect("sampled cases are valid")).collect();
    let service: Vec<LaneService> =
        configs.iter().map(|c| LaneService::compute(c).expect("valid config")).collect();
    let latency: Vec<f64> = BatchKernel::new(&configs)
        .solve()
        .iter()
        .map(|lane| lane.as_ref().expect("sampled cases solve").0.latency.mean_message_latency_us)
        .collect();
    let bounds: Vec<LaneBounds> = (0..configs.len())
        .map(|i| {
            let threshold = latency[i] * (0.6 + 0.39 * (i % 13) as f64 / 12.0);
            match i % 8 {
                0 => {
                    configs[i] = configs[i].with_lambda(-1.0);
                    LaneBounds::NONE
                }
                1 => LaneBounds::NONE,
                2 | 4 | 6 => LaneBounds { slo_us: threshold, dominated_at_us: f64::INFINITY },
                _ => LaneBounds { slo_us: f64::INFINITY, dominated_at_us: threshold },
            }
        })
        .collect();
    let solo: Vec<LaneOutcome> = (0..configs.len())
        .map(|i| {
            let mut arena = BatchKernel::default();
            let (c, s, b) = (&configs[i..=i], &service[i..=i], &bounds[i..=i]);
            arena.evaluate_bounded(c, s, b).pop().expect("one lane")
        })
        .collect();
    BoundedLanes { configs, service, bounds, solo }
}

impl BoundedLanes {
    /// The first lane whose batched outcome at `workers` differs from
    /// its solo solve.
    fn batch_mismatch(&self, workers: usize) -> Option<String> {
        let batch = evaluate_batch_bounded(&self.configs, &self.service, &self.bounds, workers);
        if batch.len() != self.solo.len() {
            return Some(format!("{} outcomes for {} lanes", batch.len(), self.solo.len()));
        }
        batch.iter().zip(&self.solo).enumerate().find_map(|(i, (b, s))| {
            outcome_mismatch(b, s).map(|m| format!("lane {i} at {workers} workers: {m}"))
        })
    }
}

/// A bounded batch whose thresholds prune most lanes within a few
/// passes, so the lockstep loop compacts its span again and again: every
/// lane's outcome must keep the bits of the same lane solved alone in a
/// one-lane batch (which never compacts), at 1, 2 and 3 workers.
#[test]
fn compacted_bounded_lanes_match_solo_solves() {
    let lanes = bounded_lanes(SEED ^ 0xc0a1e5ce, 1024);
    let pruned = lanes.solo.iter().filter(|o| matches!(o, LaneOutcome::Pruned { .. })).count();
    assert!(pruned * 2 > lanes.solo.len(), "only {pruned} of {} lanes pruned", lanes.solo.len());
    for workers in [1, 2, 3] {
        if let Some(mismatch) = lanes.batch_mismatch(workers) {
            panic!("{mismatch}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Threads that share the kernel helpers at once, each with its own
    /// lanes and worker count, each get exactly their lanes' solo
    /// outcomes, batch after batch, with a one-worker batch between
    /// their parallel ones.
    #[test]
    fn concurrent_batches_match_their_solo_solves(
        workers in proptest::collection::vec(1usize..6, 2..5),
        lanes in 1u32..160,
        seed in 0u64..u64::MAX,
    ) {
        let jobs: Vec<(usize, BoundedLanes)> = workers
            .iter()
            .enumerate()
            .map(|(t, &w)| (w, bounded_lanes(seed ^ t as u64, lanes + 7 * t as u32)))
            .collect();
        let start = std::sync::Barrier::new(jobs.len());
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let threads: Vec<_> = jobs
                .iter()
                .map(|(w, job)| {
                    let (rounds, start) = ([*w, 1, *w], &start);
                    scope.spawn(move || {
                        start.wait();
                        rounds.into_iter().find_map(|w| job.batch_mismatch(w))
                    })
                })
                .collect();
            threads.into_iter().filter_map(|t| t.join().expect("batch thread panicked")).collect()
        });
        prop_assert!(mismatches.is_empty(), "{}", mismatches.join("; "));
    }
}

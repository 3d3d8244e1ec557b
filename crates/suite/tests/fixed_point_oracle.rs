//! The kernel's fixed points and the planner's searches against their
//! full oracles.
//!
//! * Every kernel lane must land on the bits of the scalar reference
//!   solver (`solver::solve`, full bisection): root bits, iteration
//!   counts and errors, on the model's validation grid and on sampled
//!   configurations.
//! * `sensitivity::lambda_for_latency` searches its 47-rung λ ladder;
//!   the oracle here solves every rung, as the search did before.
//! * The optimizer's enumeration skips families its budget rules out;
//!   the oracle walks and prices every design one by one.
//! * The pruned walk drops designs offered more than they can carry on
//!   a saturation floor before they become kernel lanes; the oracles
//!   are the solved latency of every such lane on a widened validation
//!   grid, and the exhaustive walk's frontier.
//!
//! Every mismatch names its configuration.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::{QueueAccounting, ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::kernel::{self, BatchKernel};
use hmcs_core::model::{AnalyticalModel, PerformanceReport};
use hmcs_core::optimize::{
    self, CatalogCostModel, Constraints, Design, DesignSpace, OptimizeError, OptimizeSpec, Workload,
};
use hmcs_core::scenario::{Scenario, PAPER_LAMBDA_PER_US};
use hmcs_core::sensitivity;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::Architecture;
use proptest::prelude::*;

const MODELS: [ServiceTimeModel; 4] = [
    ServiceTimeModel::Exponential,
    ServiceTimeModel::Deterministic,
    ServiceTimeModel::Erlang(4),
    ServiceTimeModel::HyperExponential(4.0),
];

/// `base` at `utilization` times its saturation rate.
fn at_utilization(base: SystemConfig, utilization: f64) -> Option<SystemConfig> {
    let service = ServiceTimes::compute(&base).ok()?;
    let sat = solver::saturation_lambda(&base, &service);
    Some(base.with_lambda(utilization * sat))
}

/// A lane's `(λ_eff, iterations)`, or its error.
fn lane(result: &Result<PerformanceReport, ModelError>) -> Result<(u64, usize), ModelError> {
    result
        .as_ref()
        .map(|r| (r.equilibrium.lambda_eff.to_bits(), r.equilibrium.solver_iterations))
        .map_err(Clone::clone)
}

/// Describes how the kernel's answer for `config` differs from the
/// scalar solver's full bisection, or `None` when they match.
fn lane_mismatch(
    config: &SystemConfig,
    kernel: &Result<PerformanceReport, ModelError>,
) -> Option<String> {
    let scalar = solver::solve(config).map(|eq| (eq.lambda_eff.to_bits(), eq.solver_iterations));
    let kernel = lane(kernel);
    (kernel != scalar).then(|| {
        format!(
            "C={} N0={} M={} ICN1={} {:?} {:?} {:?} λ={:e}: scalar solver {scalar:?}, \
             kernel {kernel:?}",
            config.clusters,
            config.nodes_per_cluster,
            config.message_bytes,
            config.icn1.name,
            config.architecture,
            config.service_model,
            config.accounting,
            config.lambda_per_us,
        )
    })
}

/// Configurations of every shape the grids cover: both cases and
/// architectures, `populations` processors split into each of
/// `cluster_counts` clusters, three message sizes, four service models
/// and both accountings, each at every `utilizations` multiple of its
/// saturation rate.
fn grid(
    populations: &[usize],
    cluster_counts: &[usize],
    utilizations: &[f64],
) -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &nodes in populations {
                for &clusters in cluster_counts {
                    if clusters > nodes {
                        continue;
                    }
                    for bytes in [256u64, 1024, 4096] {
                        for model in MODELS {
                            for accounting in
                                [QueueAccounting::PaperLiteral, QueueAccounting::SingleQueue]
                            {
                                let Ok(base) = SystemConfig::new(
                                    clusters,
                                    nodes / clusters,
                                    bytes,
                                    1e-9,
                                    scenario,
                                    arch,
                                ) else {
                                    continue;
                                };
                                let base =
                                    base.with_service_model(model).with_accounting(accounting);
                                for &u in utilizations {
                                    configs.extend(at_utilization(base, u));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    configs
}

/// The validation grid: C from 1 to 256, 16 to 1,024 processors, three
/// message sizes, both cases and architectures, four service models,
/// both accountings, and offered rates from 0.01× to 100× saturation.
fn validation_grid() -> Vec<SystemConfig> {
    grid(
        &[16, 64, 256, 1024],
        &[1, 2, 4, 8, 16, 32, 64, 128, 256],
        &[0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 10.0, 100.0],
    )
}

#[test]
fn kernel_lanes_match_the_scalar_solver_on_the_validation_grid() {
    let configs = validation_grid();
    assert!(configs.len() > 20_000, "{} configurations", configs.len());
    let kernel: Vec<_> =
        kernel::evaluate_batch(&configs, 2).into_iter().map(|r| r.map(|(r, _)| r)).collect();
    let mismatches: Vec<String> =
        configs.iter().zip(&kernel).filter_map(|(c, k)| lane_mismatch(c, k)).collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} configurations differ from the scalar solver; first: {}",
        mismatches.len(),
        configs.len(),
        mismatches[0]
    );
}

/// The planner's saturation floor of `config`, with its margin: the
/// lower bound `(λ − hi0)/(w·hi0·λ)` that flow blocking (eq. 7) and
/// Little's law give a design offered more than its bracket top `hi0 =
/// min(λ, sat·(1−1e-12))`, with `w` the ECN1 weight of eq. 6, shrunk by
/// 1e-3. Zero unless `0 < hi0 < λ`, both finite. Re-derived here from
/// the model, not imported, so that a wrong bound in the planner shows.
fn margined_saturation_floor(config: &SystemConfig) -> f64 {
    let Ok(service) = ServiceTimes::compute(config) else {
        return 0.0;
    };
    let lambda = config.lambda_per_us;
    let hi0 = lambda.min(solver::saturation_lambda(config, &service) * (1.0 - 1e-12));
    if !(hi0 > 0.0 && hi0 < lambda && lambda.is_finite()) {
        return 0.0;
    }
    let w = match config.accounting {
        QueueAccounting::PaperLiteral => 2.0,
        QueueAccounting::SingleQueue => 1.0,
    };
    (lambda - hi0) / (w * hi0 * lambda) * (1.0 - 1e-3)
}

/// Every lane the planner may prune on its saturation floor solves, and
/// reports a latency at or above that floor: over the validation grid's
/// shapes, widened to 2²⁰ processors and 1,024 clusters, offered from a
/// hair above to 1e8× saturation.
#[test]
fn saturated_lanes_report_latency_above_the_saturation_floor() {
    let configs = grid(
        &[16, 256, 4096, 1 << 16, 1 << 20],
        &[1, 4, 16, 64, 256, 1024],
        &[1.0 + 1e-12, 1.0 + 1e-6, 1.1, 10.0, 1e4, 1e8],
    );
    let floors: Vec<f64> = configs.iter().map(margined_saturation_floor).collect();
    let floored: Vec<usize> = (0..configs.len()).filter(|&i| floors[i] > 0.0).collect();
    assert!(floored.len() > 8_000, "{} lanes with a positive floor", floored.len());
    let lanes: Vec<SystemConfig> = floored.iter().map(|&i| configs[i]).collect();
    let reports = kernel::evaluate_batch(&lanes, 2);
    let mut violations = Vec::new();
    for (&i, report) in floored.iter().zip(&reports) {
        let config = &configs[i];
        let latency = report.as_ref().map(|(r, _)| r.latency.mean_message_latency_us);
        if !latency.as_ref().is_ok_and(|&t| t >= floors[i]) {
            violations.push(format!(
                "C={} N0={} M={} {:?} {:?} {:?} {:?} λ={:e}: floor {:e}, solve {latency:?}",
                config.clusters,
                config.nodes_per_cluster,
                config.message_bytes,
                config.icn1.name,
                config.architecture,
                config.service_model,
                config.accounting,
                config.lambda_per_us,
                floors[i],
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "{} of {} floored lanes fail or report below the floor; first: {}",
        violations.len(),
        floored.len(),
        violations[0]
    );
}

fn any_config() -> impl Strategy<Value = SystemConfig> {
    (
        (0usize..9, 1usize..129, 64u64..8193),
        (any::<bool>(), any::<bool>(), 0usize..4, any::<bool>()),
        (-2.0f64..2.0, any::<bool>()),
    )
        .prop_map(|((ci, nodes, bytes), (case2, blocking, mi, literal), (log_u, exact_sat))| {
            let clusters = 1usize << ci;
            let scenario = if case2 { Scenario::Case2 } else { Scenario::Case1 };
            let arch = if blocking { Architecture::Blocking } else { Architecture::NonBlocking };
            let accounting =
                if literal { QueueAccounting::PaperLiteral } else { QueueAccounting::SingleQueue };
            let base = SystemConfig::new(clusters, nodes, bytes, 1e-9, scenario, arch)
                .ok()?
                .with_service_model(MODELS[mi])
                .with_accounting(accounting);
            at_utilization(base, if exact_sat { 1.0 } else { 10f64.powf(log_u) })
        })
        .prop_filter("a buildable configuration", Option::is_some)
        .prop_map(Option::unwrap)
}

proptest! {
    /// Sampled configurations away from the grid: a one-lane kernel
    /// solve lands on the scalar solver's bits and count.
    #[test]
    fn kernel_lanes_match_the_scalar_solver_on_sampled_configs(config in any_config()) {
        let kernel = BatchKernel::new(std::slice::from_ref(&config)).solve().remove(0);
        let mismatch = lane_mismatch(&config, &kernel.map(|(r, _)| r));
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
    }
}

/// `lambda_for_latency` solving the whole 47-rung ladder before its
/// Newton polish, as it did before the ladder was searched.
fn lambda_for_latency_full(config: &SystemConfig, budget: f64) -> Result<Option<f64>, ModelError> {
    config.validate()?;
    if !(budget.is_finite() && budget > 0.0) {
        return Err(ModelError::InvalidConfig {
            name: "latency_budget_us",
            reason: "latency budget must be finite and positive",
        });
    }
    let service = ServiceTimes::compute(config)?;
    let sat = solver::saturation_lambda(config, &service);
    let scale = if sat.is_finite() && sat > 0.0 { sat } else { config.lambda_per_us };
    let ladder: Vec<f64> = (0..47i32).map(|j| scale * f64::from(j - 30).exp2()).collect();
    let latencies = |lams: &[f64]| -> Result<Vec<f64>, ModelError> {
        let configs: Vec<SystemConfig> = lams.iter().map(|&l| config.with_lambda(l)).collect();
        kernel::evaluate_batch(&configs, 1)
            .into_iter()
            .map(|r| r.map(|(report, _)| report.latency.mean_message_latency_us))
            .collect()
    };
    let lats = latencies(&ladder)?;
    if lats[0] > budget {
        return Ok(None);
    }
    let Some(first_over) = lats.iter().position(|&t| t > budget) else {
        return Ok(Some(ladder[46]));
    };
    let (mut lo, mut hi) = (ladder[first_over - 1], ladder[first_over]);
    let mut x = 0.5 * (lo + hi);
    for _ in 0..40 {
        let h = x * 1e-5;
        let probes = latencies(&[x - h, x, x + h])?;
        let (t_lo, t, t_hi) = (probes[0], probes[1], probes[2]);
        if t <= budget {
            lo = x;
        } else {
            hi = x;
        }
        if (hi - lo) <= 1e-12 * hi {
            break;
        }
        let deriv = (t_hi - t_lo) / (2.0 * h);
        let newton =
            if deriv.is_finite() && deriv > 0.0 { x - (t - budget) / deriv } else { f64::NAN };
        x = if newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
    }
    Ok(Some(lo))
}

proptest! {
    /// The searched ladder answers exactly as the full ladder: `None`
    /// below the zero-load latency, the last rung on the retention
    /// plateau, and the same polished rate in between.
    #[test]
    fn ladder_search_matches_the_full_ladder(config in any_config(), log_scale in -0.5f64..3.0) {
        let zero_load = AnalyticalModel::evaluate(&config.with_lambda(config.lambda_per_us * 1e-9))
            .map(|r| r.latency.mean_message_latency_us)
            .unwrap_or(1.0);
        let budget = zero_load * 10f64.powf(log_scale);
        let searched = sensitivity::lambda_for_latency(&config, budget);
        let full = lambda_for_latency_full(&config, budget);
        prop_assert_eq!(
            searched.map(|o| o.map(f64::to_bits)),
            full.map(|o| o.map(f64::to_bits)),
            "C={} N0={} M={} {:?} {:?} λ={:e} budget {}",
            config.clusters, config.nodes_per_cluster, config.message_bytes,
            config.service_model, config.architecture, config.lambda_per_us, budget
        );
    }
}

#[test]
fn ladder_search_keeps_the_full_ladders_errors() {
    let config =
        SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
    for budget in [f64::NAN, -5.0, 0.0, f64::INFINITY] {
        assert_eq!(
            sensitivity::lambda_for_latency(&config, budget),
            lambda_for_latency_full(&config, budget),
            "budget {budget}"
        );
    }
    let invalid = config.with_lambda(-1.0);
    assert_eq!(
        sensitivity::lambda_for_latency(&invalid, 5_000.0),
        lambda_for_latency_full(&invalid, 5_000.0)
    );
}

/// A technology the cost catalogue has no price for.
const UNPRICED: NetworkTechnology =
    NetworkTechnology { name: "Unpriced Fabric", latency_us: 5.0, bandwidth_mb_s: 500.0 };

/// A spec over a dense port axis, so that whole port families fall
/// under or over the budget.
fn any_dense_spec() -> impl Strategy<Value = OptimizeSpec> {
    (
        (prop_oneof![Just(32usize), Just(64), Just(128)], -6.5f64..-3.5),
        (prop_oneof![Just(None), (4.0f64..6.5).prop_map(Some)], any::<bool>(), 0usize..8),
    )
        .prop_map(|((total_nodes, lambda_exp), (budget_exp, strict, unpriced))| {
            let presets = NetworkTechnology::PRESETS;
            let mut intra = vec![presets[0], presets[2]];
            let mut inter = vec![presets[1], presets[3]];
            // One spec in eight prices an unknown technology, on either
            // axis.
            match unpriced {
                0 => intra.push(UNPRICED),
                1 => inter.insert(0, UNPRICED),
                _ => {}
            }
            let mut cluster_counts = DesignSpace::paper_default(total_nodes).cluster_counts;
            cluster_counts.push(3);
            OptimizeSpec {
                workload: Workload {
                    scenario: Scenario::Case1,
                    total_nodes,
                    message_bytes: 1024,
                    lambda_per_us: 10f64.powf(lambda_exp),
                },
                constraints: Constraints {
                    slo_latency_us: Some(30_000.0),
                    budget_usd: budget_exp.map(|e| 10f64.powf(e)),
                    require_unsaturated: strict,
                },
                space: DesignSpace {
                    cluster_counts,
                    intra,
                    inter,
                    switch_ports: (2..=48).step_by(2).collect(),
                    architectures: vec![Architecture::NonBlocking, Architecture::Blocking],
                },
            }
        })
}

/// What walking every design one by one finds: the pre-filter counters
/// and the designs the budget and saturation gates keep, or the first
/// unknown technology of a buildable design.
fn full_walk(spec: &OptimizeSpec) -> Result<([usize; 3], Vec<String>), OptimizeError> {
    let (mut invalid, mut over_budget, mut saturated) = (0, 0, 0);
    let mut kept = Vec::new();
    let s = &spec.space;
    for &clusters in &s.cluster_counts {
        for &intra in &s.intra {
            for &inter in &s.inter {
                for &ports in &s.switch_ports {
                    for &arch in &s.architectures {
                        let Ok(design) =
                            Design::build(&spec.workload, clusters, intra, inter, ports, arch)
                        else {
                            invalid += 1;
                            continue;
                        };
                        let cost = CatalogCostModel.cost_usd(&design)?;
                        let Ok(service) = ServiceTimes::compute(&design.config) else {
                            invalid += 1;
                            continue;
                        };
                        let over = spec.constraints.budget_usd.is_some_and(|b| cost > b);
                        let sat = spec.constraints.require_unsaturated
                            && spec.workload.lambda_per_us
                                >= solver::saturation_lambda(&design.config, &service);
                        over_budget += usize::from(over);
                        saturated += usize::from(sat);
                        if !over && !sat {
                            kept.push(design.key());
                        }
                    }
                }
            }
        }
    }
    Ok(([invalid, over_budget, saturated], kept))
}

proptest! {
    /// Skipping the families a budget rules out counts and keeps
    /// exactly what walking every design does, under random budgets, no
    /// budget, `require_unsaturated` and unknown technologies, and the
    /// pruned frontier still equals the exhaustive one.
    #[test]
    fn enumeration_skip_matches_the_full_walk(spec in any_dense_spec()) {
        let pruned = optimize::optimize_pruned(&spec, BatchOptions::sequential());
        let exhaustive = optimize::optimize(&spec, BatchOptions::sequential());
        match full_walk(&spec) {
            Err(e) => {
                prop_assert_eq!(pruned.unwrap_err(), e.clone());
                prop_assert_eq!(exhaustive.unwrap_err(), e);
            }
            Ok(([invalid, over_budget, saturated], kept)) => {
                let (pruned, exhaustive) = (pruned.unwrap(), exhaustive.unwrap());
                for outcome in [&pruned, &exhaustive] {
                    let d = &outcome.diagnostics;
                    prop_assert_eq!(
                        (d.invalid, d.over_budget, d.saturated),
                        (invalid, over_budget, saturated),
                        "budget {:?} strict {}", spec.constraints.budget_usd,
                        spec.constraints.require_unsaturated
                    );
                    prop_assert_eq!(
                        outcome.evaluated + d.failed + d.pruned,
                        kept.len()
                    );
                }
                prop_assert_eq!(&pruned.frontier, &exhaustive.frontier);
                for point in &pruned.frontier {
                    prop_assert!(kept.contains(&point.design.key()));
                }
            }
        }
    }
}

/// A plan around the paper's operating point: either case, 64 to 4,096
/// processors over the paper-default design space, λ from 0.1× to 5.1×
/// the paper's (so many designs are offered more than they can carry),
/// a random SLO and budget, and `require_unsaturated` on about one spec
/// in eleven.
fn any_plan_spec() -> impl Strategy<Value = OptimizeSpec> {
    (
        (prop_oneof![Just(64usize), Just(256), Just(1024), Just(4096)], any::<bool>()),
        (0.1f64..5.1, prop_oneof![Just(512u64), Just(1024), Just(2048)]),
        (prop_oneof![Just(None), (3.0f64..5.0).prop_map(Some)], 0usize..11),
        prop_oneof![Just(None), (2.0f64..3.5).prop_map(Some)],
    )
        .prop_map(|((total_nodes, case2), (lambda, bytes), (slo_exp, strict), budget_exp)| {
            OptimizeSpec {
                workload: Workload {
                    scenario: if case2 { Scenario::Case2 } else { Scenario::Case1 },
                    total_nodes,
                    message_bytes: bytes,
                    lambda_per_us: PAPER_LAMBDA_PER_US * lambda,
                },
                constraints: Constraints {
                    slo_latency_us: slo_exp.map(|e| 10f64.powf(e)),
                    budget_usd: budget_exp.map(|e| total_nodes as f64 * 10f64.powf(e)),
                    require_unsaturated: strict == 0,
                },
                space: DesignSpace::paper_default(total_nodes),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Far above saturation the pruned walk drops most candidates on
    /// their saturation floor before they become kernel lanes; its
    /// frontier still equals the exhaustive one, and everything it did
    /// not evaluate is accounted as pruned, never as a lost failure.
    #[test]
    fn pruned_walk_matches_the_exhaustive_frontier_above_saturation(spec in any_plan_spec()) {
        let pruned = optimize::optimize_pruned(&spec, BatchOptions::sequential()).unwrap();
        let exhaustive = optimize::optimize(&spec, BatchOptions::sequential()).unwrap();
        let (p, e) = (&pruned.diagnostics, &exhaustive.diagnostics);
        prop_assert_eq!(&pruned.frontier, &exhaustive.frontier);
        prop_assert_eq!(
            (p.invalid, p.over_budget, p.saturated),
            (e.invalid, e.over_budget, e.saturated)
        );
        prop_assert_eq!(p.failed, e.failed);
        prop_assert_eq!(pruned.evaluated + p.pruned, exhaustive.evaluated);
    }
}

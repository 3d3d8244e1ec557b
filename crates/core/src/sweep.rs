//! Parameter sweeps — the x-axes of the paper's figures and of the
//! design-space exploration the introduction motivates.
//!
//! All sweeps run on the batched structure-of-arrays kernel
//! ([`crate::kernel`]): shape sweeps (clusters, message size, switch
//! ports, technology) evaluate their points through
//! [`kernel::evaluate_batch`] on the bounded worker pool, while
//! λ-sweeps compute the λ-independent [`ServiceTimes`] once per shape
//! and advance every point's bisection in lockstep lanes of a single
//! kernel.

use crate::batch::{BatchOptions, EvalStats};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::kernel;
use crate::model::PerformanceReport;
use crate::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_TOTAL_NODES};
use crate::service::ServiceTimes;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::transmission::Architecture;

/// One point of a sweep: the varied value and the model output.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint<T> {
    /// The swept parameter's value at this point.
    pub x: T,
    /// The model evaluation at this point.
    pub report: PerformanceReport,
    /// Evaluation cost of this point (timing and solver iterations).
    pub stats: EvalStats,
}

/// Zips x-values with batch results into sweep points, propagating the
/// first evaluation error.
fn collect_points<T>(
    xs: Vec<T>,
    results: Vec<Result<(PerformanceReport, EvalStats), ModelError>>,
) -> Result<Vec<SweepPoint<T>>, ModelError> {
    xs.into_iter()
        .zip(results)
        .map(|(x, r)| r.map(|(report, stats)| SweepPoint { x, report, stats }))
        .collect()
}

/// Sweeps the cluster count at fixed total node count (the figures'
/// x-axis). Each `clusters` entry must divide `total_nodes`.
pub fn cluster_sweep(
    base: &SystemConfig,
    total_nodes: usize,
    cluster_counts: &[usize],
) -> Result<Vec<SweepPoint<usize>>, ModelError> {
    cluster_sweep_with(base, total_nodes, cluster_counts, BatchOptions::default())
}

/// [`cluster_sweep`] with an explicit worker policy.
pub fn cluster_sweep_with(
    base: &SystemConfig,
    total_nodes: usize,
    cluster_counts: &[usize],
    options: BatchOptions,
) -> Result<Vec<SweepPoint<usize>>, ModelError> {
    let mut configs = Vec::with_capacity(cluster_counts.len());
    for &c in cluster_counts {
        if c == 0 || !total_nodes.is_multiple_of(c) {
            return Err(ModelError::InvalidConfig {
                name: "cluster_counts",
                reason: "every cluster count must divide the total node count",
            });
        }
        let mut cfg = *base;
        cfg.clusters = c;
        cfg.nodes_per_cluster = total_nodes / c;
        configs.push(cfg);
    }
    collect_points(
        cluster_counts.to_vec(),
        kernel::evaluate_batch(&configs, options.resolved_workers()),
    )
}

/// The paper's figure sweep: 256 nodes, `C ∈ {1, 2, …, 256}`.
pub fn paper_cluster_sweep(
    scenario: Scenario,
    architecture: Architecture,
    message_bytes: u64,
    lambda_per_us: f64,
) -> Result<Vec<SweepPoint<usize>>, ModelError> {
    let base = SystemConfig::paper_preset(scenario, 1, architecture)?
        .with_message_bytes(message_bytes)
        .with_lambda(lambda_per_us);
    cluster_sweep(&base, PAPER_TOTAL_NODES, &PAPER_CLUSTER_COUNTS)
}

/// Sweeps the message size at a fixed shape.
pub fn message_size_sweep(
    base: &SystemConfig,
    sizes: &[u64],
) -> Result<Vec<SweepPoint<u64>>, ModelError> {
    let configs: Vec<SystemConfig> = sizes.iter().map(|&m| base.with_message_bytes(m)).collect();
    collect_points(
        sizes.to_vec(),
        kernel::evaluate_batch(&configs, BatchOptions::default().resolved_workers()),
    )
}

/// Sweeps the per-processor generation rate (λ) at a fixed shape —
/// useful for locating the saturation knee.
///
/// The λ-independent service times are computed once for the shared
/// shape, then one [`kernel::BatchKernel`] advances every point's
/// bisection in lockstep — each point is bit-identical to an
/// independent [`crate::solver::solve`] of the same configuration.
pub fn lambda_sweep(
    base: &SystemConfig,
    lambdas_per_us: &[f64],
) -> Result<Vec<SweepPoint<f64>>, ModelError> {
    base.validate()?;
    let service = ServiceTimes::compute(base)?;
    let configs: Vec<SystemConfig> = lambdas_per_us.iter().map(|&l| base.with_lambda(l)).collect();
    let results = kernel::BatchKernel::with_service(&configs, &service).solve();
    collect_points(lambdas_per_us.to_vec(), results)
}

/// Sweeps the switch port count (design-space exploration: how big a
/// switch fabric is worth buying?).
pub fn switch_ports_sweep(
    base: &SystemConfig,
    port_counts: &[u32],
) -> Result<Vec<SweepPoint<u32>>, ModelError> {
    let configs = port_counts
        .iter()
        .map(|&p| {
            let switch = SwitchFabric::new(p, base.switch.latency_us())?;
            Ok(base.with_switch(switch))
        })
        .collect::<Result<Vec<_>, ModelError>>()?;
    collect_points(
        port_counts.to_vec(),
        kernel::evaluate_batch(&configs, BatchOptions::default().resolved_workers()),
    )
}

/// Sweeps a technology assignment over the three tiers (the paper's
/// "technology heterogeneity" future work): evaluates every combination
/// of the given technologies for ICN1 and for the ECN1/ICN2 pair.
pub fn technology_sweep(
    base: &SystemConfig,
    technologies: &[hmcs_topology::technology::NetworkTechnology],
) -> Result<Vec<SweepPoint<(&'static str, &'static str)>>, ModelError> {
    let mut xs = Vec::with_capacity(technologies.len() * technologies.len());
    let mut configs = Vec::with_capacity(xs.capacity());
    for &intra in technologies {
        for &inter in technologies {
            let mut cfg = *base;
            cfg.icn1 = intra;
            cfg.ecn1 = inter;
            cfg.icn2 = inter;
            xs.push((intra.name, inter.name));
            configs.push(cfg);
        }
    }
    collect_points(xs, kernel::evaluate_batch(&configs, BatchOptions::default().resolved_workers()))
}

/// Finds the largest per-processor rate (messages/µs) whose predicted
/// mean latency stays at or below `latency_budget_us`, clamped to the
/// caller's `[lo, hi]` search window. Returns `None` when `lo` already
/// violates the budget.
///
/// Capacity-planning helper: "how much traffic can this design absorb
/// within an SLO?" Since PR 9 this delegates to the Newton-polished
/// [`crate::sensitivity::lambda_for_latency`] probe — one
/// implementation of "max λ within SLO" shared with the optimizer —
/// and clamps its answer to the window: latency is monotone in the
/// offered rate, so a crossing above `hi` means `hi` itself fits and a
/// crossing below `lo` means even `lo` violates the budget.
/// `iterations` is kept for signature compatibility with the former
/// serial bisection; the Newton polish converges to a `1e-12` relative
/// bracket regardless.
pub fn max_lambda_within_latency(
    base: &SystemConfig,
    latency_budget_us: f64,
    lo: f64,
    hi: f64,
    _iterations: u32,
) -> Result<Option<f64>, ModelError> {
    base.validate()?;
    match crate::sensitivity::lambda_for_latency(base, latency_budget_us)? {
        None => Ok(None),
        Some(best) if best < lo => Ok(None),
        Some(best) if best > hi => Ok(Some(hi)),
        Some(best) => Ok(Some(best)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;
    use crate::scenario::PAPER_LAMBDA_PER_US;

    #[test]
    fn paper_sweep_covers_all_cluster_counts() {
        let pts = paper_cluster_sweep(
            Scenario::Case1,
            Architecture::NonBlocking,
            1024,
            PAPER_LAMBDA_PER_US,
        )
        .unwrap();
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0].x, 1);
        assert_eq!(pts[8].x, 256);
        for p in &pts {
            assert!(p.report.latency.mean_message_latency_us > 0.0);
            assert!(p.stats.solver_iterations > 0);
        }
    }

    #[test]
    fn cluster_sweep_rejects_non_divisors() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 1, Architecture::NonBlocking).unwrap();
        assert!(cluster_sweep(&base, 256, &[3]).is_err());
        assert!(cluster_sweep(&base, 256, &[0]).is_err());
    }

    #[test]
    fn parallel_cluster_sweep_matches_sequential_exactly() {
        let base = SystemConfig::paper_preset(Scenario::Case2, 1, Architecture::Blocking).unwrap();
        let seq = cluster_sweep_with(&base, 256, &PAPER_CLUSTER_COUNTS, BatchOptions::sequential())
            .unwrap();
        let par =
            cluster_sweep_with(&base, 256, &PAPER_CLUSTER_COUNTS, BatchOptions::with_workers(4))
                .unwrap();
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.x, p.x);
            assert_eq!(s.report, p.report);
        }
    }

    #[test]
    fn message_sweep_is_monotone() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        let pts = message_size_sweep(&base, &[128, 256, 512, 1024, 2048]).unwrap();
        for w in pts.windows(2) {
            assert!(
                w[1].report.latency.mean_message_latency_us
                    > w[0].report.latency.mean_message_latency_us
            );
        }
    }

    #[test]
    fn lambda_sweep_is_monotone() {
        let base =
            SystemConfig::paper_preset(Scenario::Case2, 8, Architecture::NonBlocking).unwrap();
        let pts = lambda_sweep(&base, &[1e-6, 1e-5, 1e-4, 5e-4]).unwrap();
        for w in pts.windows(2) {
            assert!(
                w[1].report.latency.mean_message_latency_us
                    >= w[0].report.latency.mean_message_latency_us
            );
        }
    }

    #[test]
    fn warm_started_lambda_sweep_matches_cold_start() {
        // The sweep shares one service-time computation across its
        // lanes; every point must still equal an independent solve of
        // the reference solver, bit for bit.
        let base = SystemConfig::paper_preset(Scenario::Case1, 32, Architecture::Blocking).unwrap();
        let lambdas = [1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 2.5e-4, 1e-3];
        let swept = lambda_sweep(&base, &lambdas).unwrap();
        for (pt, &l) in swept.iter().zip(&lambdas) {
            let reference = crate::solver::solve(&base.with_lambda(l)).unwrap();
            assert_eq!(pt.report.equilibrium, reference, "λ={l}");
        }
    }

    #[test]
    fn bigger_switches_never_hurt_lightly_loaded_latency() {
        // At light load, fewer fat-tree stages mean strictly fewer switch
        // hops and hence lower latency.
        let base = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking)
            .unwrap()
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let pts = switch_ports_sweep(&base, &[8, 16, 24, 48, 64]).unwrap();
        for w in pts.windows(2) {
            assert!(
                w[1].report.latency.mean_message_latency_us
                    <= w[0].report.latency.mean_message_latency_us + 1e-9,
                "more ports should not increase lightly-loaded fat-tree latency"
            );
        }
    }

    #[test]
    fn bigger_switches_raise_throughput_under_saturation() {
        // Under heavy load the system is ICN2-bound; faster access tiers
        // release throttled sources, so throughput must not decrease —
        // even though mean latency can *increase* as the bottleneck
        // absorbs the extra offered load. This is a real property of the
        // flow-blocking feedback worth pinning down.
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
        let pts = switch_ports_sweep(&base, &[8, 24, 48]).unwrap();
        for w in pts.windows(2) {
            assert!(
                w[1].report.throughput_per_us >= w[0].report.throughput_per_us - 1e-12,
                "more ports should not reduce delivered throughput"
            );
        }
    }

    #[test]
    fn technology_sweep_covers_the_grid_and_orders_sanely() {
        use hmcs_topology::technology::NetworkTechnology;
        let base = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking)
            .unwrap()
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let techs = [
            NetworkTechnology::FAST_ETHERNET,
            NetworkTechnology::GIGABIT_ETHERNET,
            NetworkTechnology::MYRINET,
        ];
        let pts = technology_sweep(&base, &techs).unwrap();
        assert_eq!(pts.len(), 9);
        // At light load the all-Myrinet system must beat the all-FE one.
        let lat = |intra: &str, inter: &str| {
            pts.iter()
                .find(|p| p.x == (intra, inter))
                .unwrap()
                .report
                .latency
                .mean_message_latency_us
        };
        assert!(lat("Myrinet", "Myrinet") < lat("Fast Ethernet", "Fast Ethernet"));
        // With mostly-external traffic at C=16, upgrading the inter tier
        // helps more than upgrading the intra tier.
        let upgrade_inter = lat("Fast Ethernet", "Myrinet");
        let upgrade_intra = lat("Myrinet", "Fast Ethernet");
        assert!(upgrade_inter < upgrade_intra);
    }

    #[test]
    fn capacity_planning_finds_a_feasible_rate() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        // Budget comfortably above the zero-load latency.
        let budget = 5_000.0; // 5 ms
        let best = max_lambda_within_latency(&base, budget, 1e-8, 1e-2, 60)
            .unwrap()
            .expect("low rate must fit the budget");
        // The found rate meets the budget...
        let at_best = AnalyticalModel::evaluate(&base.with_lambda(best)).unwrap();
        assert!(at_best.latency.mean_message_latency_us <= budget * 1.001);
        // ...and slightly more violates it.
        let above = AnalyticalModel::evaluate(&base.with_lambda(best * 1.05)).unwrap();
        assert!(above.latency.mean_message_latency_us > budget * 0.999);
    }

    #[test]
    fn capacity_planning_detects_impossible_budgets() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        // Budget below the zero-load service time: impossible.
        let none = max_lambda_within_latency(&base, 1.0, 1e-9, 1e-3, 40).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn capacity_planning_is_the_newton_probe_clamped_to_the_window() {
        // One implementation of "max λ within SLO": the planner must
        // return exactly the Newton-polished probe's answer when the
        // crossing is inside the window, and the window edge when it
        // is not.
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        let budget = 5_000.0;
        let newton = crate::sensitivity::lambda_for_latency(&base, budget).unwrap().unwrap();
        let planned = max_lambda_within_latency(&base, budget, 1e-8, 1e-2, 60).unwrap().unwrap();
        assert_eq!(planned.to_bits(), newton.to_bits(), "planner diverged from the probe");
        // Window entirely below the crossing → the feasible edge.
        let clamped =
            max_lambda_within_latency(&base, budget, 1e-8, newton * 0.5, 60).unwrap().unwrap();
        assert_eq!(clamped.to_bits(), (newton * 0.5).to_bits());
        // Window entirely above the crossing → infeasible.
        let none =
            max_lambda_within_latency(&base, budget, newton * 2.0, newton * 4.0, 60).unwrap();
        assert!(none.is_none());
    }
}
